"""Trust-aware denoising autoencoder for implicit-feedback top-N recommendation."""

from .dataset import (Dataset, DatasetError, FoldSplit, ParseError,
                      binarize_and_filter, load_cache, load_raw,
                      materialize_split, save_cache, split_folds)
from .model import (FlatParams, ForwardTrace, Hyperparams, ModelParams, Row, Sample,
                    corrupt, forward_sampled, fuse, init_params,
                    load_checkpoint, predict_scores, save_checkpoint)
from .objective import (LossBreakdown, correlative_term, logistic_loss,
                        user_gradients, user_loss)
from .sparse import SparseInteractions
from .trainer import TrainLog, TrainingError, train
from .metrics import (MetricsReport, aggregate_folds, average_precision,
                      bucket_by_degree, evaluate_fold, ndcg, rank_top_n)
from .baselines import PopModel, ablation_config, pop_fit, pop_scores

__version__ = "0.1.0"

__all__ = [
    "Dataset", "DatasetError", "FoldSplit", "ParseError",
    "binarize_and_filter", "load_cache", "load_raw", "materialize_split",
    "save_cache", "split_folds",
    "FlatParams", "ForwardTrace", "Hyperparams", "ModelParams", "Row", "Sample",
    "corrupt", "forward_sampled", "fuse", "init_params", "load_checkpoint",
    "predict_scores", "save_checkpoint",
    "LossBreakdown", "correlative_term", "logistic_loss",
    "user_gradients", "user_loss",
    "SparseInteractions",
    "TrainLog", "TrainingError", "train",
    "MetricsReport", "aggregate_folds", "average_precision", "bucket_by_degree",
    "evaluate_fold", "ndcg", "rank_top_n",
    "PopModel", "ablation_config", "pop_fit", "pop_scores",
]
