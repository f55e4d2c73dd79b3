"""File-size modelling.

Section 5.1.2: "when the size of a file was not available, the size
was randomly assigned from a geometric distribution with a parameter of
0.00007, for an average file size of 14284 bytes", a value chosen from
the actual distribution of file sizes in SEER's traces.  The same
distribution seeds the synthetic filesystem, with per-category scale
factors so object files, binaries and documents look plausible.
"""

from __future__ import annotations

import random
from typing import Optional

GEOMETRIC_P = 0.00007
MEAN_FILE_SIZE = 14_284   # the paper's reported mean


class FileSizeModel:
    """Samples file sizes from the paper's geometric distribution."""

    def __init__(self, rng: Optional[random.Random] = None,
                 p: float = GEOMETRIC_P) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"geometric parameter must be in (0, 1): {p}")
        self._rng = rng if rng is not None else random.Random(0)
        self.p = p

    def sample(self) -> int:
        """One draw: the number of failures before the first success,
        plus one (so sizes are always at least a byte)."""
        # Inverse-CDF sampling of the geometric distribution.
        import math
        u = self._rng.random()
        return max(1, int(math.log1p(-u) / math.log1p(-self.p)) + 1)

    def sample_scaled(self, scale: float) -> int:
        """A draw scaled by a per-category factor (binaries are bigger
        than headers)."""
        return max(1, int(self.sample() * scale))

    def source_file(self) -> int:
        return self.sample_scaled(0.8)

    def header_file(self) -> int:
        return self.sample_scaled(0.15)

    def binary(self) -> int:
        return self.sample_scaled(2.0)

    def shared_library(self) -> int:
        return self.sample_scaled(8.0)

    def document(self) -> int:
        return self.sample_scaled(2.5)

    def mail_folder(self) -> int:
        return self.sample_scaled(6.0)
