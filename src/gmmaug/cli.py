"""Command-line front end.

Subcommands: fit | stats | augment | hist | metrics | phantom.
Exit codes: 0 success, 2 usage or input error (or too little memory), 3
numerical failure.
stdout carries only machine-readable output (--print-config dumps the
resolved run configuration as JSON); diagnostics go to stderr: a failed
run's one error line from :func:`main`, and per-volume lines (skipped
or unconverged fits) as warnings on the ``gmmaug.population`` logger.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import augment as aug
from . import metrics as met
from .errors import InputError, NumericalError
from .gmm import _DEFAULT_K, EmConfig
from .phantom import PhantomSpec, generate_phantom
from .population import estimate_population, load_stats, report_fit, save_stats
from .preprocess import _CLIP_PCT, fit_volume
from .volume import (
    _beyond_float32,
    _foreground,
    _pack_header,
    _write_float32,
    foreground_mask,
    read_label_volume,
    read_volume,
    write_label_volume,
    write_volume,
)

# Upper bound on ``hist --bins``: the histogram and its CSV are O(bins).
_MAX_BINS = 1_000_000


def _add_em_options(parser):
    group = parser.add_argument_group("EM options")
    group.add_argument("--tol", type=float, default=EmConfig.tol,
                       help="relative log-likelihood tolerance")
    group.add_argument("--max-iter", type=int, default=EmConfig.max_iter, help="EM iteration cap")


def _add_clip_options(parser):
    parser.add_argument("--clip-lo", type=float, default=_CLIP_PCT[0], help="low clip percentile")
    parser.add_argument("--clip-hi", type=float, default=_CLIP_PCT[1], help="high clip percentile")


def _em_config(args) -> EmConfig:
    return EmConfig(tol=args.tol, max_iter=args.max_iter)


def _print_config(args) -> None:
    if not getattr(args, "print_config", False):
        return
    config = {k: v for k, v in vars(args).items() if k not in ("func", "print_config")}
    print(json.dumps({"command": config.pop("command"), **config}, sort_keys=True))


def cmd_fit(args) -> int:
    labels = read_label_volume(args.mask) if args.mask else None
    values = _foreground(args.input, labels)[3]
    params = fit_volume(values, args.k, _em_config(args), args.clip_lo, args.clip_hi)[1]
    Path(args.out).write_text(params.dumps() + "\n")
    report_fit(args.input, params)
    return 0


def cmd_stats(args) -> int:
    directory = Path(args.input_dir)
    if not directory.is_dir():
        raise InputError(f"{directory} is not a directory")
    paths = sorted([*directory.glob("*.nii"), *directory.glob("*.nii.gz")], key=lambda p: p.name)
    stats = estimate_population(paths, args.k, _em_config(args), args.clip_lo, args.clip_hi)
    save_stats(stats, args.out)
    return 0


def cmd_augment(args) -> int:
    if args.n < 1 or args.seed < 0:
        raise InputError(f"need --n >= 1 and --seed >= 0, got --n {args.n} --seed {args.seed}")
    stats = load_stats(args.stats)
    coded = aug._Coded(args.input, stats, _em_config(args), args.hard_assign, not args.no_clip)
    # each draw is written before the next overwrites it, so one float32
    # body on a zero background serves them all
    header, body = _pack_header(coded.dims, coded.spacing), np.zeros(coded.mask.size, dtype="<f4")
    for i in range(args.n):
        pert, perturbed = aug._perturbed(stats, coded.params, args.seed + i,
                                         args.reject_order_inversion)
        path = f"{args.out_prefix}_{i}.nii"
        if not coded.draw_into(body, perturbed):
            raise _beyond_float32(path)
        _write_float32(path, header, body)
        sidecar = aug.provenance_dict(pert, perturbed)
        Path(f"{args.out_prefix}_{i}.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    report_fit(args.input, coded.params)  # every draw shares the one fit
    return 0


def cmd_hist(args) -> int:
    if not 1 <= args.bins <= _MAX_BINS:
        raise InputError(f"--bins must be in [1, {_MAX_BINS}], got {args.bins}")
    vol = read_volume(args.input)
    # counted over the nonzero voxels before the mask, which keeps only
    # positive ones and refuses a volume without any
    outside = np.count_nonzero(vol.data < 0.0) + np.count_nonzero(vol.data > 1.0)
    if outside:
        raise InputError(f"{outside} of {np.count_nonzero(vol.data)} masked voxels lie outside "
                         "[0, 1]; hist bins normalized intensities")
    values = vol.data[foreground_mask(vol)]
    counts, edges = np.histogram(values, bins=args.bins, range=(0.0, 1.0))
    centers = 0.5 * (edges[:-1] + edges[1:])
    lines = ["bin_center,count"]
    lines += [f"{float(c)!r},{int(n)}" for c, n in zip(centers, counts)]
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def cmd_metrics(args) -> int:
    pred = read_label_volume(args.pred)
    ref = read_label_volume(args.ref)
    labels = None
    if args.labels:
        try:
            labels = [int(tok) for tok in args.labels.split(",") if tok]
        except ValueError as exc:
            raise InputError(f"--labels must be comma-separated integers: {exc}") from exc
    report = met.overlap(pred, ref, labels)
    out = Path(args.out)
    if out.suffix == ".csv":
        out.write_text(report.to_csv())
    else:
        out.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    return 0


def cmd_phantom(args) -> int:
    if args.seed < 0:
        raise InputError(f"need --seed >= 0, got {args.seed}")
    spec = PhantomSpec.from_json_file(args.spec) if args.spec else PhantomSpec()
    spec = spec.with_seed(args.seed)
    vol, labels = generate_phantom(spec)
    write_volume(vol, args.out)
    if args.out_labels:
        write_label_volume(labels, args.out_labels)
    return 0


@functools.cache  # one parser per process: main parses many argument lists with it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmmaug",
        description="Mixture-based intensity augmentation for skull-stripped brain MRI.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a mixture to one volume, write parameters JSON")
    p.add_argument("input", help="input .nii volume")
    p.add_argument("--mask", help="explicit foreground mask volume")
    p.add_argument("--k", type=int, default=_DEFAULT_K, help="number of components")
    p.add_argument("--out", required=True, help="output parameters JSON")
    _add_clip_options(p)
    _add_em_options(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("stats", help="estimate population spreads over a directory of volumes")
    p.add_argument("input_dir", help="directory scanned for *.nii / *.nii.gz (sorted by name)")
    p.add_argument("--k", type=int, default=_DEFAULT_K)
    p.add_argument("--out", required=True, help="output stats JSON")
    _add_clip_options(p)
    _add_em_options(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("augment", help="write n augmented copies with provenance sidecars")
    p.add_argument("input", help="input .nii volume")
    p.add_argument("--stats", required=True, help="population stats JSON")
    p.add_argument("--seed", type=int, required=True, help="base seed; draw i uses seed+i")
    p.add_argument("--n", type=int, default=1, help="number of augmentations")
    p.add_argument("--out-prefix", required=True, help="outputs <prefix>_<i>.nii and .json")
    p.add_argument("--hard-assign", action="store_true",
                   help="assign each voxel to its argmax component instead of blending")
    p.add_argument("--reject-order-inversion", action="store_true",
                   help="redraw perturbations that invert the component order")
    p.add_argument("--no-clip", action="store_true", help="skip clipping output to [0,1]")
    _add_em_options(p)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("hist", help="masked-intensity histogram as CSV")
    p.add_argument("input", help="normalized .nii volume; values outside [0,1] exit 2")
    p.add_argument("--bins", type=int, default=100,
                   help=f"fixed-width bins over [0,1], 1 to {_MAX_BINS}")
    p.add_argument("--out", required=True, help="output CSV of bin_center,count")
    p.set_defaults(func=cmd_hist)

    p = sub.add_parser("metrics", help="overlap metrics between two label volumes")
    p.add_argument("pred", help="predicted labels volume")
    p.add_argument("ref", help="reference labels volume")
    p.add_argument("--labels", help="comma-separated labels (default: all nonzero present)")
    p.add_argument("--out", required=True, help="output report (.json or .csv)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("phantom", help="generate a synthetic three-tissue phantom")
    p.add_argument("--spec", help="phantom spec JSON (defaults used when omitted)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output .nii volume")
    p.add_argument("--out-labels", help="optional ground-truth labels .nii")
    p.set_defaults(func=cmd_phantom)

    for sp in sub.choices.values():
        sp.add_argument("--print-config", action="store_true",
                        help="dump the resolved run configuration to stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _print_config(args)
    try:
        return args.func(args)
    except (InputError, NumericalError, OSError, MemoryError) as exc:
        # numpy raises its own MemoryError subclass; the line names the base
        kind = ("IoError" if isinstance(exc, OSError) else
                "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__)
        print(f"{kind}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericalError) else 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
