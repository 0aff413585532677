"""Learnt quasi-transitive similarity for descriptor-set retrieval."""

from . import corpus, evaluation, metafeat, retrieval, sampling, similarity, svr, synth

__version__ = "0.1.0"
