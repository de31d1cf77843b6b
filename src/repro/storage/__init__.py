"""The checkpoint record format shared by both hosting environments.

:mod:`repro.storage.checkpoint` builds and reads the two-phase
checkpoint records.  What one synchronous log costs -- the paper's
~200us IDE-disk write plus bounded jitter, as a function of the logged
payload -- is :class:`repro.common.config.StorageConfig`'s formula,
which :mod:`repro.sim.storage` charges per store.
"""
