"""Finite-dimensional quantum instruments: dilations, extremality, compatibility.

The package works throughout in the Heisenberg picture: an instrument
assigns to each outcome a completely positive map ``B -> sum_k A_k^dag B A_k``
and the maps sum to a unital channel.  Schrodinger-picture state updates are
available wherever they are the natural reading.

The public names load lazily: the first lookup of a name imports its home
module and keeps the object here, so a process loads only the modules whose
names it uses.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "cpmaps": (
        "ChoiMatrix",
        "KrausSet",
        "action_distance",
        "apply_heisenberg",
        "apply_schrodinger",
        "choi",
        "cp_check",
        "kraus_equivalent",
        "kraus_from_choi",
        "minimal_kraus",
    ),
    "compat": (
        "CompatChannelDecomposition",
        "CompatCoefficients",
        "compat_channel",
        "compat_from_coeffs",
        "lueders_factorization",
        "pvm_compat",
        "rank1_nuclear_extract",
    ),
    "dilation": (
        "MarkovKernel",
        "MeasurementModel",
        "StinespringDilation",
        "measurement_model",
        "minimal_stinespring",
        "model_intertwiner",
        "naimark",
        "realized_instrument",
        "standard_model",
        "verify_dilation",
    ),
    "errors": ("FormatError", "InstrumentumError"),
    "formats": ("Document", "load", "save"),
    "extremality": (
        "CorrelationReport",
        "ExtremalityReport",
        "channel_extremal",
        "correlation_extremal",
        "correlation_witness_split",
        "instrument_extremal",
        "povm_extremal",
        "witness_decompose",
    ),
    "instruments": (
        "BiInstrument",
        "DiscreteInstrument",
        "Povm",
        "associate_channel",
        "associate_povm",
        "compose_sequential",
        "lueders",
        "margins",
        "nuclear",
        "refine_rank1",
        "trivial_from_channel",
        "trivial_from_povm",
        "validate",
    ),
    "matkernel": (
        "DEFAULT_TOL",
        "Tolerances",
        "herm_eig",
        "herm_exp",
        "isometry_complete",
        "kron",
        "numeric_rank",
        "psd_check",
    ),
    "posterior": (
        "PosteriorResult",
        "conditional_expectation",
        "conditional_output",
        "outcome_distribution",
        "posterior_state",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _PUBLIC:  # a submodule: ``instrumentum.matkernel`` needs no import of its own
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
