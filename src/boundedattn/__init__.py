"""Bounded-memory attention: fixed slot counts, control-vector writes,
batch/recurrent equivalence, and a toy trainer plus decode benchmarks."""

from .attention import (
    AttentionConfig,
    AttnState,
    GradTape,
    LayerParams,
    StrategySpec,
    init_attn_state,
    init_layer_params,
    mha_backward,
    mha_forward,
    stream_step,
)
from .memory import (
    BoundedMemory,
    TransitionOp,
    build_memory,
    dilated_step,
    full_attention,
    pseudo_query_memory,
    readout,
    readout_normalized,
    step,
    zero_memory,
)
from .numerics import NumericError, finite_diff_grad, make_rng, softmax
from .strategies import (
    ClusterControl,
    CompressiveControl,
    Control,
    DilatedControl,
    LinformerControl,
    LocalToGlobalControl,
    MlpControl,
    RandomSlotControl,
    WindowControl,
    cluster_assign,
    cluster_phi,
    centroids_via_phi,
    phi_at,
    phi_matrix,
    phi_mlp_sequence,
)
from .toymodel import (
    DecoderState,
    SiteSpec,
    TaskSpec,
    ToyLM,
    ToyModelConfig,
    ToySeq2Seq,
    greedy_decode,
    train,
)

__version__ = "0.1.0"
