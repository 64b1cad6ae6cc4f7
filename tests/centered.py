"""The centered coefficient array of a Spectrum, for tests.

pytest does not collect this file: its name does not start with test_.
"""

import numpy as np


def centered_coefficients(s):
    """F_k = (1/(2N+1)) * sum_j f_j exp(-i k theta_j) for k in [-N, N], k = -N first.

    Built from the spectrum's memoized real FFT, the k = 0..N half, and the
    conjugate mirror of that half for k < 0.
    """
    half = s._half / s.grid.size
    return np.concatenate((np.conj(half[:0:-1]), half))
