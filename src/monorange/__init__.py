"""Absolute distance estimation from monocular drone video.

Three estimators over detector boxes and relative depth maps:

* ``regression``: supervised box-feature model for the followed person,
* ``geometry``: pinhole model from known object heights,
* ``depth``: calibrated depth-map scores with online drift detection and
  recalibration,

plus evaluation metrics, a synthetic-scene oracle, shipped calibration
profiles, and a command-line front end.
"""
