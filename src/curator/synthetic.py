"""Deterministic desk-scale dataset generators.

Each generator emits a GridDataset whose cluster variable is stored as a
field, so curation pipelines never have to derive physics quantities on
the fly.  Generators can also persist output in the raw binary grid
format, exercising the ingestion path end to end.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .grid import GridDataset, GridDims, RunConfig, emit_config, is_int, is_number, role_vars

BIMODAL_DEFAULTS = {"means": (-5.0, 5.0), "sigmas": (0.5, 0.5), "weights": (0.5, 0.5)}
# each generator kind and the params it takes
GENERATOR_PARAMS = {
    "taylor_green": ("nu",),
    "cylinder_wake": ("n_vortices", "strength", "core_radius", "advection_speed"),
    "lognormal_field": ("mu", "sigma"),
    "bimodal_field": tuple(BIMODAL_DEFAULTS),
    "gaussian_field": ("mean", "sigma"),
}
GENERATOR_KINDS = tuple(GENERATOR_PARAMS)


def check_params(kind: str, params: dict) -> None:
    """Each param is one the generator ``kind`` takes: n_vortices an integer
    >= 0, bimodal_field's means, sigmas and weights lists of numbers of one
    length (its defaults' where absent), any other a number.  An error is
    a ValueError that names params.<name>."""
    valid = GENERATOR_PARAMS[kind]
    for name, value in params.items():
        if name not in valid:
            raise ValueError(f"params.{name} is not a param of kind {kind}; "
                             f"valid: {', '.join(valid)}")
        if name in BIMODAL_DEFAULTS:
            ok = isinstance(value, (list, tuple)) and all(map(is_number, value))
            what = "a list of numbers"
        elif name == "n_vortices":
            ok, what = is_int(value) and value >= 0, "an integer >= 0"
        else:
            ok, what = is_number(value), "a number"
        if not ok:
            raise ValueError(f"params.{name} must be {what}, got {value!r}")
    if kind == "bimodal_field":
        # the lists given come first, so the error opens with one of them
        lists = {**params, **{k: v for k, v in BIMODAL_DEFAULTS.items() if k not in params}}
        if len({len(v) for v in lists.values()}) > 1:
            raise ValueError(f"{', '.join(f'params.{k}' for k in lists)} must be of one "
                             f"length, got {[len(v) for v in lists.values()]}")


def gen_taylor_green(dims: GridDims | tuple[int, int, int], t: float = 0.0,
                     nu: float = 0.01) -> GridDataset:
    """Single-mode vortex array on [0, 2pi)^3 with viscous damping.

    u = sin x cos y cos z, v = -cos x sin y cos z, w = 0, each scaled by
    exp(-2 nu t).  The cluster variable is the vertical vorticity
    dv/dx - du/dy = 2 exp(-2 nu t) sin x sin y cos z, evaluated in
    closed form.  The velocity field is divergence-free.
    """
    if not isinstance(dims, GridDims):
        dims = GridDims(nx=dims[0], ny=dims[1], nz=dims[2], nt=1, dims=3)
    if dims.dims != 3:
        raise ValueError("taylor_green requires a 3D grid")
    x = 2.0 * np.pi * np.arange(dims.nx) / dims.nx
    y = 2.0 * np.pi * np.arange(dims.ny) / dims.ny
    z = 2.0 * np.pi * np.arange(dims.nz) / dims.nz
    X, Y, Z = np.meshgrid(x, y, z, indexing="ij")
    damp = np.exp(-2.0 * nu * t)
    u = damp * np.sin(X) * np.cos(Y) * np.cos(Z)
    v = -damp * np.cos(X) * np.sin(Y) * np.cos(Z)
    w = np.zeros_like(u)
    wz = 2.0 * damp * np.sin(X) * np.sin(Y) * np.cos(Z)
    fields = {(k, 0): a for k, a in (("u", u), ("v", v), ("w", w), ("wz", wz))}
    return GridDataset(
        dims=dims, fields=fields,
        input_vars=["u", "v", "w"], output_vars=["wz"], cluster_var="wz",
    )


def gen_cylinder_wake(
    dims: GridDims | tuple[int, int],
    n_vortices: int = 8,
    t: float = 0.0,
    seed: int = 0,
    strength: float = 1.0,
    core_radius: float = 0.04,
    advection_speed: float = 0.1,
) -> GridDataset:
    """Staggered street of Gaussian vortices of alternating sign on [0,1]^2.

    Velocity is the superposition of the vortex-induced fields; the
    cluster variable is the superposed scalar vorticity.  Vortex centers
    are advected downstream by t * advection_speed, with a small seeded
    jitter on the transverse offsets.
    """
    if not isinstance(dims, GridDims):
        if len(dims) > 2 and dims[2] != 1:
            raise ValueError(f"nz must be 1 for kind cylinder_wake, got {dims[2]!r}")
        dims = GridDims(nx=dims[0], ny=dims[1], nz=1, nt=1, dims=2)
    if dims.dims != 2:
        raise ValueError("cylinder_wake requires a 2D grid")
    if core_radius <= 0:
        raise ValueError(f"core_radius must be positive, got {core_radius}")
    rng = np.random.default_rng(seed)
    x = np.arange(dims.nx) / max(dims.nx - 1, 1)
    y = np.arange(dims.ny) / max(dims.ny - 1, 1)
    X, Y = np.meshgrid(x, y, indexing="ij")
    u = np.zeros_like(X)
    v = np.zeros_like(X)
    wz = np.zeros_like(X)
    x0, street_half_width = 0.2, 0.08
    spacing = 0.6 / max(n_vortices, 1)
    rc2 = core_radius**2
    for m in range(n_vortices):
        gamma = strength * (-1.0) ** m
        xc = x0 + m * spacing + t * advection_speed
        yc = 0.5 + street_half_width * (-1.0) ** m + 0.01 * rng.standard_normal()
        dx2 = (X - xc) ** 2 + (Y - yc) ** 2
        # Lamb-Oseen tangential velocity with a finite r -> 0 limit
        factor = np.where(
            dx2 > 1e-12,
            gamma / (2.0 * np.pi) * (1.0 - np.exp(-dx2 / rc2)) / np.maximum(dx2, 1e-12),
            gamma / (2.0 * np.pi * rc2),
        )
        u += -(Y - yc) * factor
        v += (X - xc) * factor
        wz += gamma / (np.pi * rc2) * np.exp(-dx2 / rc2)
    fields = {(k, 0): a[:, :, None] for k, a in (("u", u), ("v", v), ("wz", wz))}
    return GridDataset(
        dims=dims, fields=fields,
        input_vars=["u", "v"], output_vars=["wz"], cluster_var="wz",
    )


def gen_scalar_field(
    kind: str,
    dims: GridDims | tuple[int, int, int],
    params: dict | None = None,
    seed: int = 0,
) -> GridDataset:
    """I.i.d. per-point scalar field drawn from a named distribution.

    kinds: "gaussian" (mean, sigma), "lognormal" (mu, sigma), "bimodal"
    (means, sigmas, weights).  The single field "s" serves as input,
    output, and cluster variable.
    """
    if kind not in ("gaussian", "lognormal", "bimodal"):
        raise ValueError(f"unknown scalar field kind {kind!r}")
    params = dict(params or {})
    check_params(f"{kind}_field", params)
    if not isinstance(dims, GridDims):
        dims = GridDims(nx=dims[0], ny=dims[1], nz=dims[2], nt=1, dims=3)
    rng = np.random.default_rng(seed)
    shape = dims.shape
    if kind == "gaussian":
        sigma = float(params.get("sigma", 1.0))
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        s = rng.normal(float(params.get("mean", 0.0)), sigma, size=shape)
    elif kind == "lognormal":
        sigma = float(params.get("sigma", 1.0))
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        s = rng.lognormal(float(params.get("mu", 0.0)), sigma, size=shape)
    else:
        means, sigmas, weights = (params.get(k, v) for k, v in BIMODAL_DEFAULTS.items())
        weights = np.asarray(weights, dtype=np.float64)
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError(f"mixture weights must be nonnegative and sum to 1, got {weights}")
        if any(sg <= 0 for sg in sigmas):
            raise ValueError(f"sigmas must be positive, got {sigmas}")
        component = rng.choice(len(weights), size=shape, p=weights)
        s = np.empty(shape)
        for c, (mu, sg) in enumerate(zip(means, sigmas)):
            mask = component == c
            s[mask] = rng.normal(mu, sg, size=int(mask.sum()))
    return GridDataset(
        dims=dims, fields={("s", t): s[t] for t in range(dims.nt)},
        input_vars=["s"], output_vars=["s"], cluster_var="s",
    )


def generate(kind: str, dims, seed: int = 0, t: float = 0.0,
             params: dict | None = None) -> GridDataset:
    """Dispatch on generator kind, once ``check_params`` passes its params."""
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}; valid: {', '.join(GENERATOR_KINDS)}")
    params = params or {}
    check_params(kind, params)
    if kind == "taylor_green":
        return gen_taylor_green(dims, t=t, **params)
    if kind == "cylinder_wake":
        return gen_cylinder_wake(dims, seed=seed, t=t, **params)
    return gen_scalar_field(kind.removesuffix("_field"), dims, params, seed)


def save_dataset(dataset: GridDataset, path) -> list[Path]:
    """Persist all role variables as raw binary files, one per timestep."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    written = []
    for var in role_vars(dataset):
        for ts in range(dataset.dims.nt):
            out = path / f"{var}_{ts}.bin"
            arr = np.asarray(dataset.fields[var, ts], dtype="<f8")
            arr.reshape(-1, order="F").tofile(out)
            written.append(out)
    return written


def dataset_config(dataset: GridDataset, path, seed: int = 0, **subsample) -> str:
    """A ready-to-use YAML config pointing at a saved dataset."""
    cfg = RunConfig(
        dtype="sst-binary",
        path=str(path),
        dims=dataset.dims.dims,
        nx=dataset.dims.nx,
        ny=dataset.dims.ny,
        nz=dataset.dims.nz,
        input_vars=list(dataset.input_vars),
        output_vars=list(dataset.output_vars),
        cluster_var=dataset.cluster_var,
        seed=seed,
        **subsample,
    )
    return emit_config(cfg)
