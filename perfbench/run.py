#!/usr/bin/env python3
"""Build and run the benchmark from a checkout of the repository.

    python3 perfbench/run.py --workload incast-96 --seed 42 --seconds 30 --trace 0

Run it from the root of the checkout. It stages the sources in
`perfbench/target/stage` and runs `cargo run --release` there, passing
every argument on to the benchmark binary (`perfbench/crates/bench`), and
exits with the binary's exit code.

Why a stage: Cargo hashes the absolute path of every path dependency that
lies outside the workspace root into its symbol names. The benchmark's own
package is a workspace of its own, so built in place its binary would depend
on the checkout's directory: two checkouts of the same commit link the
simulator's functions in different orders, and its hot loops land at
different alignments (on a 2-vCPU Xeon host this moved `incast-96` `wall_s`
by a quarter). The stage puts the repository's crates and the benchmark in
one workspace under a fixed relative layout, so Cargo hashes relative paths
and rustc sees relative source paths: the same sources give the same binary
in any directory. The stage sits under a `target` directory, which source
scanners such as simlint skip, so its copies are not linted twice.

The build also starts every function on a 64-byte line (`RUSTFLAGS`), so a
hot loop keeps its alignment when code elsewhere in the binary grows or
shrinks. Without it, edits to the benchmark's own untimed code moved
`incast-96` between the same two speeds.
"""

import os
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

BENCH = Path("perfbench/crates/bench")
STAGE = Path("perfbench/target/stage")
RUSTFLAGS = "-C llvm-args=-align-all-functions=6"
# The repository crates' manifests inherit these sections from the root one.
INHERITED = ("package", "dependencies")


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def sync_tree(src, dst, skip=("target",)):
    """Make `dst` a copy of `src`, rewriting only files whose bytes differ so
    that Cargo's mtime fingerprints see unchanged sources as unchanged."""
    dst.mkdir(parents=True, exist_ok=True)
    wanted = set()
    for entry in sorted(src.iterdir()):
        if entry.name in skip or entry.is_symlink():
            continue
        wanted.add(entry.name)
        out = dst / entry.name
        if entry.is_dir():
            if out.exists() and not out.is_dir():
                out.unlink()
            sync_tree(entry, out, skip)
        else:
            write_if_changed(out, entry.read_bytes())
    for stale in dst.iterdir():
        if stale.name not in wanted:
            if stale.is_dir():
                shutil.rmtree(stale)
            else:
                stale.unlink()


def write_if_changed(path, data):
    if isinstance(data, str):
        data = data.encode()
    if path.is_dir():
        shutil.rmtree(path)
    if path.exists() and path.read_bytes() == data:
        return
    path.write_bytes(data)


def toml_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return repr(v)
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(v, list):
        return "[" + ", ".join(toml_value(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{ " + ", ".join(f"{k} = {toml_value(x)}" for k, x in v.items()) + " }"
    raise TypeError(f"cannot write {v!r} as TOML")


def table(name, entries):
    lines = [f"[{name}]"]
    lines += [f"{k} = {toml_value(v)}" for k, v in entries.items()]
    return "\n".join(lines) + "\n"


def stage():
    root = tomllib.loads(Path("Cargo.toml").read_text())
    bench = tomllib.loads((BENCH / "Cargo.toml").read_text())
    workspace = root.get("workspace", {})

    # The stage's root manifest: one workspace holding the benchmark and the
    # repository's crates, with the root's inherited sections and the
    # benchmark's release profile.
    parts = [table("workspace", {"members": ["bench"], "resolver": "2"})]
    for key in INHERITED:
        if key in workspace:
            parts.append(table(f"workspace.{key}", workspace[key]))
    for name, profile in bench.get("profile", {}).items():
        parts.append(table(f"profile.{name}", profile))

    # The benchmark's manifest, less its own workspace and profile, with
    # its dependencies pointed at the staged crates.
    deps = {}
    for name, dep in bench["dependencies"].items():
        dep = dict(dep)
        if "path" in dep:
            dep["path"] = "../crates/" + Path(dep["path"]).name
        deps[name] = dep
    member = [table("package", bench["package"]), table("dependencies", deps)]

    sync_tree(Path("crates"), STAGE / "crates")
    sync_tree(BENCH / "src", STAGE / "bench" / "src")
    write_if_changed(STAGE / "bench" / "Cargo.toml", "\n".join(member))
    write_if_changed(STAGE / "Cargo.toml", "\n".join(parts))


def main():
    for need in ("Cargo.toml", "crates", BENCH / "Cargo.toml"):
        if not Path(need).exists():
            fail(f"{need} not found: run this from the root of a checkout")
    STAGE.mkdir(parents=True, exist_ok=True)
    stage()
    cmd = [
        "cargo", "run", "--release", "--offline", "--quiet",
        "--manifest-path", str(STAGE / "Cargo.toml"),
        "--bin", "perfbench", "--",
    ] + sys.argv[1:]
    # Set, not added to: the caller's flags would change the binary.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_ENCODED_RUSTFLAGS"}
    env["RUSTFLAGS"] = RUSTFLAGS
    try:
        code = subprocess.run(cmd, env=env).returncode
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    sys.exit(code if code >= 0 else 1)


if __name__ == "__main__":
    main()
