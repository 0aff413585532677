"""Learnt quasi-transitive similarity for descriptor-set retrieval."""

from .corpus import FaceSet, Gallery, ProxyTable, load_gallery, save_gallery
from .evaluation import AnrRecord, anr, anr_cdf, evaluate_all, independence_prediction, rank_k_stats
from .metafeat import build_training_corpus
from .retrieval import RankedResult, RetrievalConfig, select_proxies
from .sampling import KpcaModel, energy_report, fit_kpca, robust_select
from .similarity import fit_subspace, max_corr, max_max_sim
from .svr import SvrConfig, SvrModel, predict, train
from .synth import SynthConfig, generate

__version__ = "0.1.0"
