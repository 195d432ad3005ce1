"""Every baseline of paper §4.1.3, under one protocol.

Unsupervised numeric-only embedders (Table 2):

* :class:`~repro.baselines.ple.PLEEmbedder` — piecewise linear encoding [7];
* :class:`~repro.baselines.paf.PAFEmbedder` — periodic activation functions [7];
* :class:`~repro.baselines.squashing.SquashingGMMEmbedder` and
  :class:`~repro.baselines.squashing.SquashingSOMEmbedder` — log-squashed
  prototype induction [11];
* :class:`~repro.baselines.ks_features.KSFeaturesEmbedder` — KS distances to
  seven reference families [19].

Supervised single-column (``_SC``) re-implementations (Table 3) — statistical
features + header embeddings only, exactly as the paper strips them of wider
table context:

* :class:`~repro.baselines.sherlock.SherlockSCEmbedder` [10];
* :class:`~repro.baselines.sato.SatoSCEmbedder` [31];
* :class:`~repro.baselines.pythagoras.PythagorasSCEmbedder` [17].
"""

from repro.baselines.base import ColumnEmbedder
from repro.baselines.ks_features import KSFeaturesEmbedder
from repro.baselines.paf import PAFEmbedder
from repro.baselines.ple import PLEEmbedder
from repro.baselines.pythagoras import PythagorasSCEmbedder
from repro.baselines.sato import SatoSCEmbedder
from repro.baselines.sherlock import SherlockSCEmbedder, sherlock_statistical_features
from repro.baselines.squashing import SquashingGMMEmbedder, SquashingSOMEmbedder
from repro.core.gem import log_squash

__all__ = [
    "ColumnEmbedder",
    "PLEEmbedder",
    "PAFEmbedder",
    "SquashingGMMEmbedder",
    "SquashingSOMEmbedder",
    "log_squash",
    "KSFeaturesEmbedder",
    "SherlockSCEmbedder",
    "sherlock_statistical_features",
    "SatoSCEmbedder",
    "PythagorasSCEmbedder",
]
