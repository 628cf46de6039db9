"""A warm pass strands no memory in CPython's tuple free lists.

CPython keeps freed tuples for reuse in one free list per size, until a
full collection empties the lists.  A tuple built from an iterator (a
generator, `map`, `zip`) is allocated at a guessed size and resized, so
once freed it parks in the free list of its final size, which that kind of
construction never draws from: every pass adds to the lists.  A tuple built
from a list or a display draws from the list of its own size, so a warm
pass leaves the lists as it found them.

Each test runs its pass once to warm every cache, empties the free lists,
runs it once more under tracemalloc to refill them with what one pass
frees, and then asserts the traced growth per pass over three more passes.
"""

import gc
import tracemalloc

from kummerlat import (
    build_group_report,
    check_nonexistence,
    enriques_census,
    parse_config,
    singularity_configuration,
    standard_group,
)
from kummerlat.kummer import GROUP_CONFIGS

from test_divisibility import EXTRA_8, TABLE_10

STANDARD_GROUPS = ("neg1", "i", "Q8", "Q8_T24", "Q8hat", "D12", "T24", "T24hat")


def growth_per_pass(run) -> float:
    """Traced bytes one warm pass leaves allocated, averaged over three."""
    run()  # every cache warm
    gc.collect()  # a full collection empties the free lists
    tracemalloc.start()
    gc.disable()  # no collection empties them while the passes run
    try:
        run()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(3):
            run()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        gc.enable()
        tracemalloc.stop()
    return (after - before) / 3


def test_census_pass_strands_little():
    """The 18 m = 24 verdicts and the Enriques census: about 2 KB per pass,
    against 95 KB when the code search's remainders, the witness masks and
    the report steps were built from iterators."""
    configs = [parse_config(text) for text in TABLE_10 + EXTRA_8]

    def census():
        for config in configs:
            check_nonexistence(config)
        enriques_census()

    growth = growth_per_pass(census)
    assert growth < 8 * 1024, growth


def test_report_pass_strands_little():
    """The ten K_G reports and the eight torus quotients: about 2 KB per
    pass, against 43 KB when the torus maps, points and orbits, the lattice
    layer's vectors and the `lcm(*generator)` arguments (a call unpacks a
    generator into an iterator-built tuple) were built from iterators."""

    def reports():
        for group in GROUP_CONFIGS:
            build_group_report(group)
        for name in STANDARD_GROUPS:
            singularity_configuration(standard_group(name))

    growth = growth_per_pass(reports)
    assert growth < 8 * 1024, growth
