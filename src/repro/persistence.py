"""Model persistence: save/load trained matchers to a single ``.npz`` file.

Neural matchers serialise their network's ``state_dict`` plus the metadata
needed to rebuild the architecture (scale, config, threshold).  The
vocabulary ships inside the LM checkpoint, so ids stay stable across
processes.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.config import Scale

_FORMAT_VERSION = 1


def _scale_to_dict(scale: Scale) -> dict:
    return dataclasses.asdict(scale)


def _scale_from_dict(payload: dict) -> Scale:
    return Scale(**payload)


def save_matcher(matcher, path: Union[str, Path]) -> Path:
    """Persist a fitted neural matcher (HierGAT, Ditto, …) to ``path``.

    Raises if the matcher has no trained network.
    """
    network = getattr(matcher, "_network", None)
    if network is None:
        raise RuntimeError("matcher must be fitted before saving")
    meta = {
        "format": _FORMAT_VERSION,
        "class": type(matcher).__name__,
        "threshold": float(matcher.threshold),
        "scale": _scale_to_dict(matcher.scale),
        "num_attributes": int(getattr(matcher, "_num_attributes", 0)),
        "language_model": getattr(matcher, "language_model", None)
                          or getattr(getattr(matcher, "config", None), "language_model", "roberta"),
    }
    payload = {f"param:{k}": v for k, v in network.state_dict().items()}
    payload["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **payload)
    return path


def load_matcher(path: Union[str, Path]):
    """Rebuild a saved matcher; returns it ready for ``predict``/``scores``."""
    path = Path(path)
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta["format"] != _FORMAT_VERSION:
            raise ValueError(f"unsupported format version {meta['format']}")
        state = {k[6:]: data[k] for k in data.files if k.startswith("param:")}

    scale = _scale_from_dict(meta["scale"])
    class_name = meta["class"]
    if class_name == "DittoModel":
        from repro.lm.checkpoint import SequencePairClassifier, load_checkpoint
        from repro.matchers.ditto import DittoModel
        from repro.matchers.encoding import PairEncoder

        matcher = DittoModel(language_model=meta["language_model"], scale=scale)
        lm, _ = load_checkpoint(meta["language_model"], scale)
        matcher._network = SequencePairClassifier(lm, np.random.default_rng(scale.seed))
        matcher._encoder = PairEncoder(lm.vocab, scale=scale)
    elif class_name in ("HierGAT", "UnalignedHierGAT"):
        if class_name == "UnalignedHierGAT":
            from repro.core.unaligned import UnalignedHierGAT as cls
        else:
            from repro.core.hiergat import HierGAT as cls

        matcher = cls(language_model=meta["language_model"], scale=scale)
        matcher._build(meta["num_attributes"])
    else:
        raise ValueError(f"cannot restore matcher class {class_name!r}")

    matcher._network.load_state_dict(state)
    matcher._network.eval()
    matcher.threshold = meta["threshold"]
    if hasattr(matcher, "_num_attributes"):
        matcher._num_attributes = meta["num_attributes"]
    return matcher
