#!/usr/bin/env python3
"""Scan backends and dimensions: process-span dims, lifting ranks, dimension law."""

from gpt_tomo.core import BACKENDS
from gpt_tomo.tomography import faithful_state_check, local_tomography_check


def main() -> None:
    print(f"{'backend':<10} {'d':>2} {'span dim':>9} {'lift rank':>10} {'faithful':>9}")
    for backend in BACKENDS:
        for d in (2, 3):
            rep = faithful_state_check(backend, d, d)
            det = rep.details
            print(
                f"{backend:<10} {d:>2} {det['process_span_dim']:>9} {det['lifting_rank']:>10}"
                f" {str(rep.passed):>9}"
            )

    print("\nLocal tomography dimension law:")
    for backend in BACKENDS:
        for d1, d2 in ((2, 2), (2, 3), (3, 3)):
            rep = local_tomography_check(backend, d1, d2)
            det = rep.details
            print(
                f"  {backend}({d1}) x {backend}({d2}): composite {det['dim_composite']:>3}"
                f" vs product {det['dim_product']:>3} -> {'pass' if rep.passed else 'FAIL'}"
            )


if __name__ == "__main__":
    main()
