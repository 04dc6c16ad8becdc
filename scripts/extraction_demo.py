#!/usr/bin/env python3
"""Walk one witness extraction step by step.

Hides an element a inside an adversarial oracle (which answers every pair
with the canonically minimal implementing element, never a itself unless
minimal), runs the extraction, and prints what the oracle answered, what
got assembled, and whether the recovered element implements the same map.
"""

import argparse

from adlocal import (
    adversarial_oracle,
    commutator,
    inner_derivation,
    maps_equal,
    matrix_ring,
    matrix_to_strings,
    parse_ring_spec,
    run_extraction,
    verification_elements,
)


def show(mat) -> str:
    return str(matrix_to_strings(mat)).replace("'", "")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ring", default="zmod:2")
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--index", type=int, default=100, help="canonical index of the hidden element")
    args = parser.parse_args()

    base = parse_ring_spec(args.ring)
    carrier = matrix_ring(base, args.n)
    a = carrier.element(args.index % carrier.cardinality)
    print(f"carrier M_{args.n}({base.spec}), {carrier.cardinality} elements")
    print(f"hidden element a = {show(a)}")

    oracle = adversarial_oracle(a, carrier)
    state = run_extraction(oracle, args.n)
    print(f"\noracle answered {state.oracle_queries} unit/staircase queries:")
    for (i, j), w in sorted(state.unit_witnesses.items()):
        print(f"  pair (e_{i}{j}, staircase) -> {show(w)}")
    print(f"\noff-diagonal assembly: {show(state.offdiag)}")
    print(f"diagonal source (fixed pair {state.fixed_pair}): {show(state.diag_source)}")
    print(f"assembled witness:     {show(state.abar)}")

    elements = verification_elements(carrier)
    verdict = maps_equal(
        inner_derivation(state.abar, carrier), inner_derivation(a, carrier), elements
    )
    count = len(elements)
    scope = f"all {count}" if count == carrier.cardinality else f"{count} sampled"
    shift = carrier.sub(state.abar, a)
    # run_extraction refused a non-commutative base, so a difference that
    # commutes with every matrix unit is a scalar matrix, hence central
    central = all(commutator(shift, e) == carrier.zero for e in carrier.units())
    print(f"\nimplements the hidden map on {scope} elements: {verdict.passed}")
    print(f"difference from the hidden element is central: {central}")
    print(f"difference: {show(shift)}")


if __name__ == "__main__":
    main()
