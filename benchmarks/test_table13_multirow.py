"""Table 13: single-row vs multi-row constraints (§9.4).

ZKML restricts gadgets to single-row constraints to stay compatible with
newer proving systems; the paper shows this costs nothing (multi-row is
up to 2.2% *slower*).  We build the same fixed workload — a mix of adds,
maxes, and dot products at 10 columns — swap one gadget at a time for its
multi-row variant, and measure real proving time with the Python prover.
Each condition's time is the median of ``ROUNDS`` proves, the conditions
interleaved round by round, so a burst of load on the machine lands on
every condition alike instead of on one.  A prove is timed in process
CPU time: the prover is serial, so that is its proving time, and it
leaves out the time another process holds the core (a k=9 prove takes
a few milliseconds, about one scheduler slice).
"""

import statistics
import time

import pytest
from conftest import print_table
from paper_data import TABLE13_MULTIROW

from repro.commit import scheme_by_name
from repro.field import GOLDILOCKS
from repro.gadgets import (
    AddGadget,
    CircuitBuilder,
    DotProdGadget,
    MaxGadget,
    MultiRowAddGadget,
    MultiRowDotGadget,
    MultiRowMaxGadget,
)
from repro.halo2 import create_proof, keygen
from repro.halo2.verifier import verify_proof_strict
from repro.tensor import Entry

OPS = 40  # ops per gadget type; k stays small enough to prove quickly
ROUNDS = 5  # proves per condition; its time is their median


def build_circuit(add_cls, max_cls, dot_cls):
    b = CircuitBuilder(k=9, num_cols=10, scale_bits=4, lookup_bits=8)
    add = b.gadget(add_cls)
    mx = b.gadget(max_cls)
    dot = b.gadget(dot_cls)
    for i in range(OPS):
        (s,) = add.assign_row([(Entry(i), Entry(2 * i % 50))])
        (m,) = mx.assign_row([(s, Entry(40))])
        dot.assign_row([([s, m], [Entry(2), Entry(3)])])
    return b


def prove_circuit(builder):
    scheme = scheme_by_name("kzg", GOLDILOCKS)
    pk, vk = keygen(builder.cs, builder.asg, scheme)
    start = time.process_time()
    proof = create_proof(pk, builder.asg, scheme)
    elapsed = time.process_time() - start
    verify_proof_strict(vk, proof, builder.asg.instance_values(), scheme)
    return elapsed


CONDITIONS = {
    "single-row": (AddGadget, MaxGadget, DotProdGadget),
    "multi-row adder": (MultiRowAddGadget, MaxGadget, DotProdGadget),
    "multi-row max": (AddGadget, MultiRowMaxGadget, DotProdGadget),
    "multi-row dot": (AddGadget, MaxGadget, MultiRowDotGadget),
}


def test_table13_single_vs_multi_row(benchmark):
    builders = {label: build_circuit(*classes)
                for label, classes in CONDITIONS.items()}
    samples = {label: [] for label in CONDITIONS}
    for _ in range(ROUNDS):
        for label, builder in builders.items():
            samples[label].append(prove_circuit(builder))
    times = {label: statistics.median(seconds)
             for label, seconds in samples.items()}

    rows = [
        (label, "%.2f s" % times[label], "%.2f s" % TABLE13_MULTIROW[label],
         "%+.1f%%" % ((times[label] / times["single-row"] - 1) * 100))
        for label in CONDITIONS
    ]
    print_table(
        "Table 13: single-row vs multi-row gadgets (real proofs, 10 cols)",
        ("condition", "proving (ours)", "proving (paper)",
         "overhead vs single-row"),
        rows,
    )

    # the paper's claim: multi-row constraints do not meaningfully change
    # proving time (they measured at most +2.2%).  Our Python prover is
    # noisier and our multi-row max also declares fewer per-slot lookup
    # arguments, so we allow a wider band around parity
    for label in ("multi-row adder", "multi-row max", "multi-row dot"):
        ratio = times[label] / times["single-row"]
        assert 0.65 < ratio < 1.35, "%s ratio %.2f" % (label, ratio)

    benchmark.pedantic(
        lambda: prove_circuit(build_circuit(AddGadget, MaxGadget,
                                            DotProdGadget)),
        rounds=1, iterations=1,
    )
