"""repro — reproduction of "Joint User-Entity Representation Learning
for Event Recommendation in Social Network" (Tang & Liu, ICDE 2017).

Every name has one import path: the module that defines it
(``from repro.core.model import JointUserEventModel``).  The package
``__init__``s hold only their docstrings, so a process loads only the
modules it imports.  The subpackages:

* :mod:`repro.core` — the joint CNN representation model.
* :mod:`repro.nn` — the numpy neural-network substrate.
* :mod:`repro.text` — tokenizers, vocabularies, document encoding.
* :mod:`repro.datagen` — the synthetic social-network event world.
* :mod:`repro.features` — the combiner feature pipeline.
* :mod:`repro.gbdt` — gradient-boosted decision trees.
* :mod:`repro.baselines` — LDA / PLSA / TF-IDF / popularity baselines.
* :mod:`repro.eval` — metrics and the two-stage experiment protocol.
* :mod:`repro.store` — the serving-time representation cache and the
  batched top-K event retrieval index.
* :mod:`repro.obs` — telemetry: metrics, traces, drift, SLOs.
* :mod:`repro.serving` — the micro-batching HTTP server.
* :mod:`repro.analysis` — the project's static analyzer.

:mod:`repro.entities` holds the ``User``/``Event``/``Impression``
records every layer shares.
"""

__version__ = "1.0.0"
