"""Linear noise-reduction filters for spectroscopy.

Four calibrated low-pass families (running average, brick wall,
Gauss-Hermite, cosine-terminated) with reciprocal-space performance
measures: Parseval-based mean-square error, white-noise transmission,
noise-cutoff location, and Gibbs residual estimation, on both continuum
lineshapes and periodic sampled spectra.
"""

from .engine import (
    SampleGrid,
    Spectrum,
    TransmissionResult,
    apply_filter_ds,
    apply_filter_rs,
    noise_transmission_empirical,
    read_spectrum,
    reconstruct_with_report,
    sampled_kernel,
    write_spectrum,
)
from .filters import (
    SINC_HALF_CROSSING,
    BrickWall,
    CalibrationError,
    CalibrationResult,
    CosineTerminated,
    FilterSpec,
    GaussHermite,
    RunningAverage,
    calibrate,
    ds_cutoff,
    half_transfer_point,
    k2_of,
    kernel,
    parse_spec,
    serialize_spec,
    transfer,
)
from .lineshapes import (
    EtaRatio,
    LorentzianLine,
    NoiseModel,
    lorentzian_rs,
    pseudo_lorentzian_discrete,
)
from .metrics import (
    GibbsReport,
    NoiseReport,
    QuadratureError,
    crossover_eta,
    gibbs_residual,
    mse_bw_analytic,
    mse_numeric,
    mse_ra_analytic,
    mse_ratio_ra_bw,
    noise_cutoff,
    noise_gain,
)

__version__ = "0.1.0"
