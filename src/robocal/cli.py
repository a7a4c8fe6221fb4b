"""Command-line interface.

Exit codes: 0 success, 1 validation error (bad flags, malformed files),
2 numerical/degeneracy error. Randomized commands take --seed; when it is
omitted a seed is generated and recorded in the run manifest.

Each command imports the domain modules it runs, and `fileio` if it reads or
writes files, in its own body, so that a command loads and compiles only what
it uses; keep such imports out of the top of this module, where one would
load its module (and `fileio` its json) for every command. For the same
reason the records (Pose, Mesh, the scene and result types) are plain classes
with `__slots__` and a hand-written `__init__`, not dataclasses: `@dataclass`
writes the source of its generated methods and `exec`s it on every import,
bytecode cache or not, and `import dataclasses` costs a millisecond more.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .errors import RobocalError, ValidationError
from .geometry import make_rng, matrix_to_quat

INITIAL_FIT_WARN_MM = 0.5

# the names live in robocal.simulate, whose generate_scene refuses an unknown one
_TEMPLATE_HELP = "named scene template; an unknown name lists the known ones"


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the toolkit contract is 1
    def error(self, message):
        raise ValidationError(message)


def _fmt_pose(pose) -> str:
    q = matrix_to_quat(pose.rotation)
    t = pose.translation
    return (f"q = ({q[0]:.9f}, {q[1]:.9f}, {q[2]:.9f}, {q[3]:.9f})  "
            f"t = ({t[0]:.4f}, {t[1]:.4f}, {t[2]:.4f}) mm")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    import secrets

    seed = secrets.randbits(63)
    print(f"no --seed given; generated seed {seed} (recorded in manifest)")
    return seed


def _write_report(path, manifest, header, rows, extra_comments=()):
    from . import fileio

    lines = [manifest.embed_line()]
    lines += [f"# {c}" for c in extra_comments]
    lines.append(header)
    lines += rows
    fileio.atomic_write_text(path, "\n".join(lines) + "\n")
    manifest.write_sidecar(path)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_pivot_calib(args) -> int:
    from . import fileio
    from .pivot import DEFAULT_MIN_DIVERSITY_DEG, REFERENCE_TIP_VARIANCE_MM, solve_pivot

    min_diversity_deg = (DEFAULT_MIN_DIVERSITY_DEG if args.min_diversity_deg is None
                         else args.min_diversity_deg)
    poses = fileio.load_pose_list(args.poses_file)
    result = solve_pivot(poses, min_diversity_deg=min_diversity_deg)
    tip = result.tip_offset
    pivot = result.pivot_point
    print(f"poses:           {result.n_poses}")
    print(f"tip offset:      ({tip[0]:.4f}, {tip[1]:.4f}, {tip[2]:.4f}) mm")
    print(f"pivot point:     ({pivot[0]:.4f}, {pivot[1]:.4f}, {pivot[2]:.4f}) mm")
    print(f"residual rms:    {result.residual_rms:.4f} mm "
          f"(physical reference tip variance: {REFERENCE_TIP_VARIANCE_MM} mm)")
    if args.out:
        manifest = fileio.RunManifest.create(
            "pivot-calib",
            {"poses_file": args.poses_file,
             "min_diversity_deg": min_diversity_deg},
            [args.poses_file])
        header = ("tip_x_mm,tip_y_mm,tip_z_mm,pivot_x_mm,pivot_y_mm,pivot_z_mm,"
                  "residual_rms_mm,n_poses")
        row = ",".join([repr(float(v)) for v in (*tip, *pivot)]
                       + [repr(result.residual_rms), str(result.n_poses)])
        _write_report(args.out, manifest, header, [row])
        print(f"report written to {args.out}")
    return 0


def _cmd_handeye(args) -> int:
    from . import fileio
    from .handeye import marker_from_base, solve_handeye

    board = fileio.load_marker_board(args.board_file)
    views = fileio.load_views(args.views_file)
    marker_base, marker_rms = marker_from_base(board)
    result = solve_handeye(views, marker_base, board)
    print(f"views:                {len(views)}")
    print(f"marker-from-base fit: {marker_rms:.4f} mm rms")
    print(f"cam-to-ee:            {_fmt_pose(result.cam_to_ee)}")
    print(f"overall rmse:         {result.overall_rmse:.4f} mm")
    if result.rotation_outliers:
        print(f"flagged views (> 5 deg from the fit): {list(result.rotation_outliers)}")
    for i, rmse in enumerate(result.per_view_rmse):
        print(f"  view {i}: rmse {rmse:.4f} mm")
    if args.out:
        manifest = fileio.RunManifest.create(
            "handeye", {"board_file": args.board_file,
                        "views_file": args.views_file},
            [args.board_file, args.views_file])
        rows = [f"{i},{repr(float(v))}" for i, v in enumerate(result.per_view_rmse)]
        _write_report(args.out, manifest, "view,rmse_mm", rows,
                      extra_comments=[f"overall_rmse_mm={result.overall_rmse!r}"])
        print(f"report written to {args.out}")
    return 0


def _parse_icp_params(text: str) -> IcpParams:
    import inspect

    from .registration import IcpParams

    if not text:
        return IcpParams()
    types = {name: type(p.default)
             for name, p in inspect.signature(IcpParams).parameters.items()}
    values = {}
    for item in text.split(","):
        key, sep, val = item.partition("=")
        if not sep:
            raise ValidationError(f"bad --icp-params entry {item!r}; use key=value")
        key = key.strip()
        if key not in types:
            raise ValidationError(f"unknown --icp-params key {key!r}; "
                                  f"known: {sorted(types)}")
        try:
            values[key] = types[key](val)
        except ValueError:
            raise ValidationError(f"bad value for --icp-params {key}: {val!r}")
    return IcpParams(**values)


def _cmd_annotate(args) -> int:
    from . import fileio
    from .mesh import load_obj
    from .registration import SpatialIndex, icp_refine, initial_pose

    params = _parse_icp_params(args.icp_params)
    points = fileio.load_point_list(args.points_file)
    mesh = load_obj(args.mesh_file)
    corr = fileio.load_correspondences(args.correspondences_file)

    start, fit_rms = initial_pose(corr)
    print(f"mesh: {len(mesh.vertices)} vertices, {len(mesh.triangles)} triangles")
    print(f"initial pose:  {_fmt_pose(start)}")
    print(f"keypoint fit:  {fit_rms:.4f} mm rms")
    if fit_rms > INITIAL_FIT_WARN_MM:
        print(f"warning: keypoint residual exceeds {INITIAL_FIT_WARN_MM} mm; "
              "check the picked correspondences for outliers")
    result = icp_refine(points, SpatialIndex(mesh), start, params)
    print(f"refined pose:  {_fmt_pose(result.pose)}")
    print(f"icp: {result.iterations} iterations, converged={result.converged}, "
          f"rms {result.rms_distance:.4f} mm")
    if args.out:
        fileio.save_pose_list(args.out, [result.pose],
                              comment="refined object-to-base pose")
        manifest = fileio.RunManifest.create(
            "annotate",
            {"points_file": args.points_file, "mesh_file": args.mesh_file,
             "correspondences_file": args.correspondences_file,
             "icp_params": args.icp_params},
            [args.points_file, args.mesh_file, args.correspondences_file])
        manifest.counts.update(icp_iterations=result.iterations,
                               icp_stop_reason=result.stop_reason)
        manifest.write_sidecar(args.out)
        print(f"pose written to {args.out}")
    return 0


def _parse_handeye_targets(items) -> dict:
    targets = {}
    for item in items or []:
        name, sep, value = item.partition("=")
        if not sep:
            raise ValidationError(
                f"bad --handeye-rmse entry {item!r}; use camera=value_mm")
        try:
            targets[name] = float(value)
        except ValueError:
            raise ValidationError(f"bad --handeye-rmse value {value!r}")
    return targets


def _cmd_simulate(args) -> int:
    from . import fileio
    from .simulate import (NoiseSpec, check_out_dir, generate_scene, save_sim_report,
                           sim_report_text, simulate_annotation_error)

    if (args.scene_file is None) == (args.template is None):
        raise ValidationError("give exactly one of <scene-file> or --template")
    check_out_dir(args.out_dir)
    seed = _resolve_seed(args)
    user_targets = _parse_handeye_targets(args.handeye_rmse)
    targets = {**NoiseSpec().handeye_target_rmse, **user_targets}
    spec = NoiseSpec(obj_translation_mm=args.noise_translation,
                     obj_rotation_deg=args.noise_rotation,
                     handeye_target_rmse=targets, seed=seed)
    inputs = []
    if args.scene_file:
        scene = fileio.load_scene(args.scene_file)
        base_dir = os.path.dirname(os.path.abspath(args.scene_file))
        inputs.append(args.scene_file)
    else:
        scene = generate_scene(args.template, seed)
        base_dir = None
    # a default target for a camera the scene lacks stays unused; a camera
    # the user names must exist, or its target would be dropped silently
    cameras = [c.name for c in scene.cameras]
    unknown = [name for name in user_targets if name not in cameras]
    if unknown:
        raise ValidationError(f"--handeye-rmse names camera(s) {unknown} that the "
                              f"scene lacks; its cameras: {cameras}")
    report = simulate_annotation_error(scene, spec, draws=args.draws,
                                       base_dir=base_dir)
    manifest = fileio.RunManifest.create(
        "simulate",
        {"scene_file": args.scene_file, "template": args.template, "seed": seed,
         "noise_translation_mm": args.noise_translation,
         "noise_rotation_deg": args.noise_rotation,
         "handeye_target_rmse": targets, "draws": args.draws},
        inputs)
    text = sim_report_text(report, manifest)
    csv_path, txt_path = save_sim_report(args.out_dir, report, manifest, text)
    print(text)
    print(f"reports written to {csv_path} and {txt_path}")
    return 0


def _cmd_icp_bench(args) -> int:
    from .registration import (REFERENCE_ROTATION_DEG, REFERENCE_TRANSLATION_MM,
                               recovery_benchmark)

    seed = _resolve_seed(args)
    report = recovery_benchmark(make_rng(seed), patch_fraction=args.patch_fraction)
    for case in report.cases:
        print(f"  {case.mesh_name:<16} dt {case.translation_error_mm:7.4f} mm   "
              f"dr {case.rotation_error_deg:7.4f} deg   "
              f"({case.iterations} iters, converged={case.converged})")
    print(f"mean translation error: {report.mean_translation_mm:.4f} mm "
          f"(annotation pipeline reference: {REFERENCE_TRANSLATION_MM} mm)")
    print(f"mean rotation error:    {report.mean_rotation_deg:.4f} deg "
          f"(annotation pipeline reference: {REFERENCE_ROTATION_DEG} deg)")
    return 0


def _cmd_eval_iou(args) -> int:
    from . import fileio
    from .metrics import average_precision

    detections = fileio.load_detection_set(args.gt_file, args.pred_file)
    result = average_precision(detections, args.threshold)
    for cat, ap in result.per_category.items():
        print(f"  {cat:<12} AP@{args.threshold:.2f} = {ap:.4f}")
    if result.undefined_categories:
        print(f"undefined (no ground truth, excluded): "
              f"{result.undefined_categories}")
    print(f"mean AP@{args.threshold:.2f} = {result.mean_ap:.4f}")
    if args.out:
        manifest = fileio.RunManifest.create(
            "eval-iou", {"gt_file": args.gt_file, "pred_file": args.pred_file,
                         "threshold": args.threshold},
            [args.gt_file, args.pred_file])
        manifest.counts.update(pairs_compared=result.pairs_compared,
                               pairs_separated=result.pairs_separated,
                               pairs_clipped=result.pairs_clipped)
        rows = [f"{cat},{repr(float(ap))}"
                for cat, ap in result.per_category.items()]
        _write_report(args.out, manifest, "category,ap", rows,
                      extra_comments=[f"mean_ap={result.mean_ap!r}",
                                      f"iou_threshold={args.threshold!r}"])
        print(f"report written to {args.out}")
    return 0


def _cmd_gen_scene(args) -> int:
    from . import fileio
    from .simulate import generate_scene

    seed = _resolve_seed(args)
    scene = generate_scene(args.template, seed)
    fileio.save_scene(args.out, scene)
    manifest = fileio.RunManifest.create(
        "gen-scene", {"template": args.template, "seed": seed, "out": args.out})
    manifest.write_sidecar(args.out)
    print(f"scene with {len(scene.objects)} objects, {len(scene.cameras)} cameras, "
          f"{len(scene.trajectories)} trajectories written to {args.out}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="robocal",
                     description="robot-arm calibration and annotation toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pivot-calib", help="tool-tip pivot calibration")
    p.add_argument("poses_file")
    p.add_argument("--min-diversity-deg", type=float)  # None: solve_pivot's default
    p.add_argument("--out", help="write a CSV report")
    p.set_defaults(func=_cmd_pivot_calib)

    p = sub.add_parser("handeye", help="marker-point hand-eye calibration")
    p.add_argument("board_file")
    p.add_argument("views_file")
    p.add_argument("--out", help="write a CSV report (view, rmse)")
    p.set_defaults(func=_cmd_handeye)

    p = sub.add_parser("annotate", help="keypoint + ICP object pose annotation")
    p.add_argument("points_file", help="tip-measured surface points")
    p.add_argument("mesh_file", help="object mesh (OBJ)")
    p.add_argument("correspondences_file", help="measured/model keypoint pairs")
    p.add_argument("--icp-params", default="",
                   help="comma list, e.g. max_iterations=50,max_correspondence_mm=5")
    p.add_argument("--out", help="write the refined pose as a pose-list file")
    p.set_defaults(func=_cmd_annotate)

    p = sub.add_parser("simulate", help="simulated annotation-quality evaluation")
    p.add_argument("scene_file", nargs="?")
    p.add_argument("--template", help=_TEMPLATE_HELP)
    p.add_argument("--seed", type=int)
    p.add_argument("--noise-translation", type=float, default=0.20,
                   help="object translation noise, mm")
    p.add_argument("--noise-rotation", type=float, default=0.38,
                   help="object rotation noise, degrees")
    p.add_argument("--handeye-rmse", action="append", metavar="CAMERA=MM",
                   help="hand-eye RMSE target of one of the scene's cameras "
                        "(repeatable)")
    p.add_argument("--draws", type=int, default=1)
    p.add_argument("--out-dir", default="sim-out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("icp-bench",
                       help="pose recovery benchmark (3 meshes x 5 perturbations)")
    p.add_argument("--seed", type=int)
    p.add_argument("--patch-fraction", type=float, default=0.85,
                   help="patch radius as a fraction of the mesh diagonal")
    p.set_defaults(func=_cmd_icp_bench)

    p = sub.add_parser("eval-iou", help="oriented 3D-IoU average precision")
    p.add_argument("gt_file")
    p.add_argument("pred_file")
    p.add_argument("--threshold", type=float, required=True,
                   help="IoU threshold, e.g. 0.25 or 0.5")
    p.add_argument("--out", help="write a CSV report")
    p.set_defaults(func=_cmd_eval_iou)

    p = sub.add_parser("gen-scene", help="generate a synthetic scene file")
    p.add_argument("--template", required=True, help=_TEMPLATE_HELP)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="scene.txt")
    p.set_defaults(func=_cmd_gen_scene)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RobocalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
