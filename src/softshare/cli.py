"""Command-line entry point.

    softshare run       --config cfg [--set key=value ...]
    softshare pretrain  --config cfg ...
    softshare compress  --config cfg ...
    softshare encode    --config cfg ...
    softshare eval      --config cfg ... [--what pretrained|model|blob]
    softshare report    --config cfg ...

Every subcommand accepts the same configuration surface: an optional flat
key=value config file plus any number of --set overrides (overrides win).
Exit codes: 0 success, 2 configuration error, 3 data/format error,
4 numeric divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .checkpoint import load_checkpoint
from .config import ExperimentConfig, load_config
from .errors import ConfigurationError, DataFormatError, NumericError
from .net import evaluate
from .pipeline import _pretrained_path, evaluate_blob, load_dataset, \
    run_pipeline, stage_compress, stage_encode, stage_pretrain
from .postprocess import load_quantized


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softshare",
        description="Compress a feedforward network by retraining it under "
                    "a learnable Gaussian mixture prior.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("run", "full pipeline: pretrain, retrain, merge, quantize, encode, report"),
        ("pretrain", "train the dense baseline network and save its checkpoint"),
        ("compress", "retrain under the prior, merge components, quantize"),
        ("encode", "encode the quantized model into the sparse blob"),
        ("eval", "evaluate an artifact on the test split"),
        ("report", "print the compression report"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "eval":
            p.add_argument("--what", choices=("pretrained", "model", "blob"),
                           default="blob", help="artifact to evaluate")
    return parser


def _load(args) -> ExperimentConfig:
    return load_config(args.config, args.overrides)


def _emit(args):
    if args.quiet:
        return lambda s: None
    return lambda s: print(s, flush=True)


def cmd_run(args) -> int:
    cfg = _load(args)
    result = run_pipeline(cfg, log=_emit(args))
    print(json.dumps({
        "compression_rate": result.report["compression_rate"],
        "error_before": result.report["error_before"],
        "error_after": result.report["error_after"],
    }, sort_keys=True))
    return 0


def cmd_pretrain(args) -> int:
    cfg = _load(args)
    data = load_dataset(cfg)
    net = stage_pretrain(cfg, data, _emit(args))
    print(f"test error {evaluate(net, data.test):.4f}")
    return 0


def cmd_compress(args) -> int:
    cfg = _load(args)
    data = load_dataset(cfg)
    q = stage_compress(cfg, data, _emit(args))
    print(f"components {q.means.shape[0]}, "
          f"pruned {q.prune_fraction():.4f}, "
          f"test error {evaluate(q.to_network(), data.test):.4f}")
    return 0


def cmd_encode(args) -> int:
    cfg = _load(args)
    report = stage_encode(cfg, load_dataset(cfg), _emit(args))
    print(f"compression rate {report['compression_rate']:.2f} "
          f"({report['total_bits']} bits)")
    return 0


def cmd_eval(args) -> int:
    cfg = _load(args)
    data = load_dataset(cfg)
    out = Path(cfg.output_dir)
    if args.what == "pretrained":
        net, _, _ = load_checkpoint(_pretrained_path(cfg))
        err = evaluate(net, data.test)
    elif args.what == "model":
        net, _, _ = load_checkpoint(out / "model.swsc")
        err = evaluate(net, data.test)
    else:
        q = load_quantized(out / "quantized.bin")
        err = evaluate_blob((out / "weights.swsb").read_bytes(), q, data.test)
    print(f"test error {err:.4f}")
    return 0


def cmd_report(args) -> int:
    cfg = _load(args)
    path = Path(cfg.output_dir) / "report.json"
    if not path.exists():
        raise DataFormatError(f"no report at {path}")
    try:   # bad UTF-8 or JSON, a missing key or a wrong type
        report = json.loads(path.read_text(encoding="utf-8"))
        lines = [f"compression rate: {report['compression_rate']:.3f}",
                 f"payload-only rate: {report['payload_compression_rate']:.3f}",
                 f"error before/after: {report['error_before']} / {report['error_after']}"]
        lines += [f"layer {i}: {layer['rows']}x{layer['cols']} "
                  f"nnz {layer['nnz']} pruned {layer['prune_fraction']:.4f} "
                  f"bits {layer['total_bits']}"
                  for i, layer in enumerate(report["layers"])]
    except (LookupError, TypeError, ValueError, RecursionError) as e:
        raise DataFormatError(f"{path}: not a compression report: {e!r}") from e
    print("\n".join(lines))
    return 0


_COMMANDS = {
    "run": cmd_run,
    "pretrain": cmd_pretrain,
    "compress": cmd_compress,
    "encode": cmd_encode,
    "eval": cmd_eval,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except DataFormatError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
