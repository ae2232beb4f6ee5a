"""Record serialization into model input text.

Three styles:

- ``plain``: attribute values concatenated into a single string (the
  input format used by BERT, RoBERTa, JointBERT, and EMBA).
- ``ditto``: DITTO's structural tags — ``[COL] name [VAL] value`` per
  attribute — which the paper cites as a fix for semantic discontinuity.
- ``described``: natural-language attribute descriptors
  (``title is ... . brand is ... .``) — the paper's Sec. 5 preliminary
  finding that "introducing description structures instead of relying on
  special tokens (e.g., [COL]) can improve the robustness and
  performance of the EM model".
"""

from __future__ import annotations

from repro.data.schema import EntityRecord
from repro.text.special_tokens import COL_TOKEN, VAL_TOKEN

STYLES = ("plain", "ditto", "described")


def serialize_record(record: EntityRecord, style: str = "plain") -> str:
    """Render a record's description as one string."""
    if style == "plain":
        return record.text()
    if style == "ditto":
        parts: list[str] = []
        for name, value in record.attributes:
            if not value:
                continue
            parts.extend([COL_TOKEN, name, VAL_TOKEN, value])
        return " ".join(parts)
    if style == "described":
        parts = [
            f"{name} is {value} ."
            for name, value in record.attributes if value
        ]
        return " ".join(parts)
    raise ValueError(f"unknown serialization style {style!r}; expected one of {STYLES}")
