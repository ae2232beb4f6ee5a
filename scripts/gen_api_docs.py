"""Generate docs/api.md from the package docstrings.

Walks every public module, lists public classes/functions with their
signatures and first docstring line.  Run from the repository root:

    python scripts/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from pathlib import Path

import repro


def first_line(doc: str | None) -> str:
    if not doc:
        return ""
    return doc.strip().splitlines()[0]


class _Name(str):
    """A default value shown by name: its ``repr`` is the bare text."""

    __repr__ = str.__str__


def render_signature(obj) -> str:
    """``obj``'s signature, callable defaults as ``module.qualname``.

    A function's ``repr`` carries its memory address, which would change
    the page on every regeneration.
    """
    signature = inspect.signature(obj)
    parameters = [
        p.replace(default=_Name(f"{p.default.__module__}.{p.default.__qualname__}"))
        if p.default is not p.empty and callable(p.default) else p
        for p in signature.parameters.values()
    ]
    return str(signature.replace(parameters=parameters))


def describe_module(name: str) -> list[str]:
    module = importlib.import_module(name)
    lines = [f"### `{name}`", ""]
    if module.__doc__:
        lines += [first_line(module.__doc__), ""]
    members = []
    for attr_name, attr in sorted(vars(module).items()):
        if attr_name.startswith("_"):
            continue
        if getattr(attr, "__module__", None) != name:
            continue
        if inspect.isclass(attr) or inspect.isfunction(attr):
            try:
                signature = render_signature(attr)
            except (TypeError, ValueError):
                signature = "(...)"
            kind = "class" if inspect.isclass(attr) else "def"
            members.append(
                f"- **{kind} `{attr_name}{signature}`** — {first_line(attr.__doc__)}"
            )
    if members:
        lines += members + [""]
    return lines


def main() -> None:
    lines = [
        "# API reference",
        "",
        "Auto-generated from docstrings by `scripts/gen_api_docs.py`.",
        "",
    ]
    for info in sorted(pkgutil.walk_packages(repro.__path__, "repro."),
                       key=lambda m: m.name):
        if info.name.endswith("__main__"):
            continue
        lines += describe_module(info.name)
    out = Path("docs/api.md")
    out.parent.mkdir(exist_ok=True)
    out.write_text("\n".join(lines), encoding="utf-8")
    print(f"wrote {out} ({len(lines)} lines)")


if __name__ == "__main__":
    main()
