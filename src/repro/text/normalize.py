"""Text normalization and pre-tokenization.

Matches the behaviour of BERT's ``BasicTokenizer`` closely enough for EM:
lowercasing, whitespace cleanup, and splitting punctuation into separate
tokens while keeping alphanumeric runs (model numbers like
``sdcfh-004g-a11`` split on the hyphens, exactly as WordPiece's
pre-tokenizer does).
"""

from __future__ import annotations

import re

_WHITESPACE = re.compile(r"\s+")
# A token is either a run of alphanumerics or a single punctuation mark.
_TOKEN = re.compile(r"[a-z0-9]+|[^a-z0-9\s]")


def normalize_text(text: str) -> str:
    """Lowercase and collapse whitespace; strip control characters."""
    text = text.lower()
    if not text.isprintable():
        text = "".join(ch for ch in text if ch.isprintable() or ch in "\t\n ")
    return _WHITESPACE.sub(" ", text).strip()


def basic_tokenize(text: str) -> list[str]:
    """Split normalized text into word and punctuation tokens.

    >>> basic_tokenize("SanDisk SDCFH-004G 4GB!")
    ['sandisk', 'sdcfh', '-', '004g', '4gb', '!']
    """
    return _TOKEN.findall(normalize_text(text))
