"""The text form of the `symbolic` bench's series against a per-term reference.

    PYTHONPATH=src python tests/text_equivalence.py

Builds the three transfer series of the `symbolic` workload, ``gf Q --k 4
--order 10``, ``gf Qxy --k 5 --order 8`` and ``gf Qz --k 5 --order 8``
(30 596 terms), and compares the text and ``sorted_terms`` of every
coefficient with a reference that decodes each packed key on its own
through the struct layout of ``ring._unpack``, orders the terms by
ascending total degree and then descending exponents, and writes each term
alone.  It prints each coefficient that differs and a summary line, and
exits 1 if any does.  It needs neither pytest nor hypothesis, so it runs
under any Python the package supports.
"""

from __future__ import annotations

import platform
import sys

from opstats import xfer
from opstats.ring import DEFAULT, _unpack

SERIES = (
    ("Q", xfer.WeightSpec.seven_variable, 4, 10),
    ("Qxy", xfer.WeightSpec.xytu, 5, 8),
    ("Qz", xfer.WeightSpec.ztu, 5, 8),
)


def reference_terms(p) -> list[tuple[tuple[int, ...], int]]:
    """The terms of ``p`` as (exponent tuple without trailing zeros,
    coefficient), each key decoded alone, in the canonical order."""
    width = len(DEFAULT)

    def order(term):
        e = term[0] + (0,) * (width - len(term[0]))
        return sum(e), tuple(-v for v in e)

    return sorted(((_unpack(key), c) for key, c in p.terms.items()), key=order)


def reference_text(p) -> str:
    names = DEFAULT.names
    pieces = []
    for e, c in reference_terms(p):
        body = "".join(f"*{names[i]}" if v == 1 else f"*{names[i]}^{v}"
                       for i, v in enumerate(e) if v)
        pieces.append(f"{' - ' if c < 0 else ' + '}{abs(c)}{body}")
    text = "".join(pieces)
    if not text:
        return "0"
    return ("-" if text.startswith(" - ") else "") + text[3:]


def main() -> int:
    terms = differ = 0
    for family, spec, k, order in SERIES:
        for n, c in enumerate(xfer.walk_series(k, spec(), order).coeffs):
            terms += len(c.terms)
            if str(c) != reference_text(c) or c.sorted_terms() != reference_terms(c):
                differ += 1
                print(f"gf {family} --k {k} --order {order}: a^{n} differs from the reference")
    print(f"Python {platform.python_version()}: {differ} differences over {terms} terms "
          f"of {len(SERIES)} series")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
