"""Workload generation: the paper's key distributions plus domain data."""

from .distributions import (
    expected_unique_fraction,
    make_distribution,
    random_values,
    uniform_keys,
    unique_keys,
    zipf_keys,
)
from .generators import Batch, BatchStream
from .kmers import (
    encode_bases,
    extract_kmers,
    kmer_to_string,
    pcie_amplification,
    random_dna,
)
from .serving import serving_zipf_keys, universe_key_map
from .patches import (
    extract_patches,
    patch_amplification,
    patch_keys,
    random_image,
)
from .text import bag_of_words, synthetic_corpus, token_keys, tokenize

__all__ = [
    "unique_keys",
    "uniform_keys",
    "zipf_keys",
    "random_values",
    "expected_unique_fraction",
    "make_distribution",
    "Batch",
    "BatchStream",
    "serving_zipf_keys",
    "universe_key_map",
    "random_dna",
    "encode_bases",
    "extract_kmers",
    "kmer_to_string",
    "pcie_amplification",
    "random_image",
    "extract_patches",
    "patch_keys",
    "patch_amplification",
    "tokenize",
    "token_keys",
    "synthetic_corpus",
    "bag_of_words",
]
