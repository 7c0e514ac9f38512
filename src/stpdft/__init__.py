"""stpdft: dimension-free matrix algebra and a forward-only transformer built on it."""

from .algebra import (
    SIZE_BUDGET,
    bridge_band,
    bridge_matrix,
    bridge_matrix_exact,
    dk_stp,
    lcm,
    sta,
    stp,
    weighted_bridge_matrix,
    weighted_dk_stp,
)
from .errors import (
    DegenerateRowError,
    NonFactorizableError,
    SchemaError,
    ShapeError,
    SizeBudgetError,
)
from .hypervector import (
    DiamondPlan,
    HyperVector,
    diamond,
    diamond_general,
    diamond_vectorized,
    factor_product_form,
    hyper_add,
    hyper_add_listwise,
    hyper_inner,
    hyper_inner_weighted,
    qkv_vectorized,
)
from .projection import (
    nominal_add,
    proj_matrix,
    proj_matrix_exact,
    project,
    project_batch,
    vdist,
    vinner,
    vnorm,
)
from .prng import SplitMix64
from .stochastic import (
    is_stochastic_matrix,
    is_stochastic_vector,
    softmax,
    softmax_rows,
)
from .transformer import (
    AttentionWeights,
    ModelConfig,
    add_norm,
    assembled_attention,
    assembled_attention_qk,
    attention_nominal,
    causal_mask,
    df_add_norm,
    df_ffn,
    dv_attention,
    dv_attention_general,
    dv_multi_head,
    encoder_block,
    encoder_stack,
    ffn_nominal,
    multi_head_nominal,
    positional_encoding,
    proj_pad_pipeline,
    qkv_nominal,
    zero_pad_pipeline,
)

__version__ = "0.1.0"
