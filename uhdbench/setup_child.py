"""Time one cold library set-up in a fresh interpreter (train-offline).

Usage::

    python3 uhdbench/setup_child.py IMAGES.npy MODEL.npz [--trace DIR]

Times ``UHDClassifier(...)`` construction up to a warm encoder (every
image in IMAGES.npy encoded; the benchmark writes 128, so the pair table
is promoted) and prints one JSON line
``{"setup_s": ...}``.  A fresh interpreter matters: the
``sobol_sequences`` memo and the gather tables live for the life of a
process, so a second set-up inside one process measures neither.  With
``--trace`` the layer wrappers are installed and the line also carries
``codebook_s``, ``table_build_s`` and ``load_model_s`` (a cold
``load_model`` of MODEL.npz after the Sobol memo is cleared).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    import numpy as np

    import repro.api.persistence as persistence
    from repro.core.config import UHDConfig
    from repro.core.model import UHDClassifier
    from repro.lds.sobol import clear_sobol_cache

    images_path, model_path = argv[0], argv[1]
    trace_dir = argv[3] if argv[2:3] == ["--trace"] else None
    images = np.load(images_path)
    tracer = None
    if trace_dir is not None:
        from tracing import Tracer, install

        tracer = Tracer(trace_dir)
        install(tracer)
    start = time.perf_counter()
    model = UHDClassifier(int(images[0].size), 10, UHDConfig(dim=1024))
    model.encoder.encode_batch(images)
    result = {"setup_s": time.perf_counter() - start}
    if tracer is not None:
        import tracing

        clear_sobol_cache()
        persistence.load_model(model_path)
        spans = tracer.spans()
        inits = tracing.named(spans, "fastpath.encoder_init")
        result["codebook_s"] = tracing.total_s(
            tracing.named(spans, "lds.sobol_sequences")[:1]
        )
        result["table_build_s"] = tracing.self_s(inits[:1], spans) + tracing.total_s(
            tracing.named(spans, "fastpath.table_build")
        )
        result["load_model_s"] = tracing.total_s(tracing.named(spans, "api.load_model"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
