"""Text-based knowledge graph completion with a hashed bag-of-tokens bi-encoder.

Triples are scored as the cosine between a relation-aware query embedding
of (head description, relation description) and a candidate embedding of the
tail description.  Training is contrastive over in-batch, pre-batch, and
self negatives; evaluation ranks every entity with known-true filtering and
optional neighborhood re-ranking.
"""

from .contrastive import (
    CandidateMatrix,
    LossConfig,
    PreBatchQueue,
    TrainingBatch,
    assemble_candidates,
    infonce_loss,
    limit_negatives,
    margin_loss,
    margin_tau_loss,
)
from .encoder import (
    EncoderParams,
    Encoding,
    GradientBuffer,
    TokenIds,
    encode_backward,
    forward_hr,
    forward_tail,
    load_checkpoint,
    save_checkpoint,
    temperature,
    tokenize,
)
from .errors import CheckpointError, KgcError, NumericError, ParseError, UnknownIdError
from .evaluation import (
    EntityEmbeddingIndex,
    RankingResult,
    RerankConfig,
    breakdown_by_category,
    build_index,
    evaluate,
    predict_topk,
    rank_one,
    read_embeddings,
    rerank_scores,
    write_embeddings,
)
from .graph import (
    Entity,
    KnowledgeGraph,
    Relation,
    Triple,
    add_inverse_triples,
    augment_description,
    classify_relation,
    k_hop_neighbors,
    load_graph,
)
from .randomness import fnv1a_64, named_stream
from .training import OptimizerState, TrainConfig, apply_update, clip_gradients, lr_at, run_batch, train

__version__ = "0.1.0"

__all__ = [
    "CandidateMatrix",
    "CheckpointError",
    "EncoderParams",
    "Encoding",
    "Entity",
    "EntityEmbeddingIndex",
    "GradientBuffer",
    "KgcError",
    "KnowledgeGraph",
    "LossConfig",
    "NumericError",
    "OptimizerState",
    "ParseError",
    "PreBatchQueue",
    "RankingResult",
    "Relation",
    "RerankConfig",
    "TokenIds",
    "TrainConfig",
    "TrainingBatch",
    "Triple",
    "UnknownIdError",
    "add_inverse_triples",
    "apply_update",
    "assemble_candidates",
    "augment_description",
    "breakdown_by_category",
    "build_index",
    "classify_relation",
    "clip_gradients",
    "encode_backward",
    "evaluate",
    "fnv1a_64",
    "forward_hr",
    "forward_tail",
    "infonce_loss",
    "k_hop_neighbors",
    "limit_negatives",
    "load_checkpoint",
    "load_graph",
    "lr_at",
    "margin_loss",
    "margin_tau_loss",
    "named_stream",
    "predict_topk",
    "rank_one",
    "read_embeddings",
    "rerank_scores",
    "run_batch",
    "save_checkpoint",
    "temperature",
    "tokenize",
    "train",
    "write_embeddings",
]
