"""Fixed-base exponentiation with windowed precomputed tables.

Every protocol in the paper blinds secrets with the *same* base — the
group generator ``g`` — thousands of times per run.  A classic fixed-base
windowed table (Menezes et al., Handbook of Applied Cryptography §14.6.3)
trades a one-time precomputation for a large constant-factor speedup on
each subsequent ``g^e mod p``: the exponent is split into ``w``-bit
digits and the result assembled as a product of table entries, costing
about ``ceil(e_bits / w)`` modular multiplications instead of a full
square-and-multiply ladder.

The table stores its entries in the bignum backend's native
representation (``mpz`` under gmpy2), so the per-call multiplications
run entirely in compiled code; results are lowered back to plain
``int`` before they leave.

The result is bit-identical to ``pow(g, e, p)`` — only wall-clock time
changes, never the simulated timings (those come from the
:class:`~repro.crypto.ledger.OperationLedger`, which still records one
full exponentiation per call).
"""

from __future__ import annotations

from repro.crypto.bignum import BackendSpec, get_backend


class FixedBaseTable:
    """Precomputed powers of one base for ``w``-bit windowed exponentiation.

    ``table[j][d]`` holds ``base^(d << (j * window)) mod p`` for every
    window index ``j`` and digit ``d`` in ``[0, 2^window)``, covering
    exponents up to ``max_bits`` bits.  Exponents outside that range (or
    negative ones) transparently fall back to the backend's plain
    ``powmod``.
    """

    def __init__(
        self,
        p: int,
        base: int,
        max_bits: int,
        window: int = 5,
        backend: BackendSpec = None,
    ):
        if window < 1:
            raise ValueError("window must be at least 1")
        if max_bits < 1:
            raise ValueError("max_bits must be at least 1")
        self.p = p
        self.base = base
        self.window = window
        self.max_bits = max_bits
        self.windows = -(-max_bits // window)  # ceil
        self.backend = get_backend(backend)
        radix = 1 << window
        self._digit_mask = radix - 1
        wrap = self.backend.wrap
        wp = wrap(p)
        self._wp = wp
        table = []
        # base^(1 << (j * window)), advanced window by window.
        block_base = wrap(base) % wp
        for _ in range(self.windows):
            one = wrap(1)
            row = [one] * radix
            acc = one
            for digit in range(1, radix):
                acc = acc * block_base % wp
                row[digit] = acc
            table.append(row)
            # next block's unit: this block's top entry times block_base.
            block_base = row[radix - 1] * block_base % wp
        self._table = table

    def pow(self, exponent: int) -> int:
        """``base^exponent mod p``, bit-identical to the built-in ``pow``."""
        backend = self.backend
        if exponent < 0 or exponent.bit_length() > self.max_bits:
            return backend.unwrap(backend.powmod(self.base, exponent, self.p))
        wp = self._wp
        mask = self._digit_mask
        window = self.window
        table = self._table
        result = None
        index = 0
        while exponent:
            digit = exponent & mask
            if digit:
                entry = table[index][digit]
                result = entry if result is None else result * entry % wp
            exponent >>= window
            index += 1
        if result is None:
            return backend.unwrap(backend.wrap(1) % wp)
        return backend.unwrap(result)
