"""Machine learning as a first-class citizen (paper Section 4).

The two algorithms the paper evaluates (Figures 11-12) — logistic
regression and k-means — are expressed as RDD ``map``/``reduce``
operations, so they parallelize across the same workers as SQL, read the
same cached tables without data movement, and inherit lineage-based fault
tolerance end-to-end: killing a worker mid-iteration recomputes only the
lost partitions and the fit continues.
"""

from repro.ml.features import LabeledPoint, label_feature_extractor, vectorize_rows
from repro.ml.logistic import LogisticRegression, LogisticRegressionModel
from repro.ml.kmeans import KMeans, KMeansModel

__all__ = [
    "LabeledPoint",
    "label_feature_extractor",
    "vectorize_rows",
    "LogisticRegression",
    "LogisticRegressionModel",
    "KMeans",
    "KMeansModel",
]
