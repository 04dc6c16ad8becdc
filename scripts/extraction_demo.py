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
    assemble_offdiagonal,
    collect_unit_witnesses,
    commutator,
    extract_witness,
    inner_derivation,
    maps_equal,
    matrix_ring,
    matrix_to_strings,
    parse_ring_spec,
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
    abar = extract_witness(oracle, args.n)
    # the oracle answers each pair once, so these are the answers the
    # extraction read
    witnesses = collect_unit_witnesses(oracle, args.n)
    print(f"\noracle answered {len(witnesses)} unit/staircase queries:")
    for (i, j), w in sorted(witnesses.items()):
        print(f"  pair (e_{i}{j}, staircase) -> {show(w)}")
    print(f"\noff-diagonal assembly: {show(assemble_offdiagonal(witnesses, args.n))}")
    print(f"diagonal source (fixed pair (1, 2)): {show(witnesses[(1, 2)])}")
    print(f"assembled witness:     {show(abar)}")

    elements = verification_elements(carrier)
    verdict = maps_equal(
        inner_derivation(abar, carrier).evaluate, inner_derivation(a, carrier).evaluate, elements
    )
    count = len(elements)
    scope = f"all {count}" if count == carrier.cardinality else f"{count} sampled"
    shift = carrier.sub(abar, a)
    # extract_witness refused a non-commutative base, so a difference that
    # commutes with every matrix unit is a scalar matrix, hence central
    central = all(commutator(shift, e) == carrier.zero for e in carrier.units())
    print(f"\nimplements the hidden map on {scope} elements: {verdict.passed}")
    print(f"difference from the hidden element is central: {central}")
    print(f"difference: {show(shift)}")


if __name__ == "__main__":
    main()
