"""Federated truncated-SVD subspace learning on Grassmann manifolds with
reconstruction-error anomaly detection."""

__version__ = "0.1.0"

from .errors import (AllOneClass, ConvergenceFailure, DimensionMismatch,
                     EmptyInput, EmptyShard, FedsgError, InputError,
                     InputOverflow, LengthMismatch, NonFiniteShard,
                     ParseError, RankDeficient, ShapeMismatch, UnknownLabel)
from .linalg import SvdTriple, truncated_svd
from .grassmann import GrassmannPoint, retract, riemannian_step
from .objective import FactorPair, grad_u, grad_v, loss, optimal_sigma
from .federation import (FedConfig, RoundTrace, aggregate, load_checkpoint,
                         local_update, run_fedsg, save_checkpoint)
from .detection import (MetricsReport, evaluate, fit_threshold, roc_and_pr,
                        score, score_matrix, self_svd_baseline)
from .data import (Dataset, SynthSpec, generate_synthetic, load_dataset,
                   partition_non_iid, zscore_fit_apply)
