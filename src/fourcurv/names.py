"""Names that the numerical modules and the numpy-free command line share:
the catalog's models and charts with their default parameters, the labels
of the coordinate 2-form basis and the tags of the two operator bases.  This
module imports nothing, so the CLI can build its parser without loading numpy.
"""

BASIS_LABELS = ("e1^e2", "e1^e3", "e1^e4", "e2^e3", "e2^e4", "e3^e4")

COORDINATE = "coordinate"
SD_ASD = "sd-asd"

MODEL_DEFAULTS: dict[str, dict] = {
    "flat": {},
    "sphere4": {"r": 1.0},
    "hyperbolic4": {"r": 1.0},
    "surfaceProduct": {"a": 1.0, "b": 1.0},
    "fubiniStudy": {"s": 24.0},
    "bergman": {"s": -24.0},
}

CHART_DEFAULTS: dict[str, dict] = {
    "flatChart": {},
    "sphereProductChart": {"a": 1.0, "b": 1.0},
    "hyperbolic4HalfSpace": {},
}


def model_names() -> tuple[str, ...]:
    return tuple(MODEL_DEFAULTS)


def chart_names() -> tuple[str, ...]:
    return tuple(CHART_DEFAULTS)
