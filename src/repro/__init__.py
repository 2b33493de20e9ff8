"""repro: a full reproduction of "On Construction of Cloud IaaS Using KVM
and OpenNebula for Video Services" (ICPPW 2012) on a simulated cluster.

The package mirrors the paper's stack:

* :mod:`repro.sim`        -- deterministic discrete-event kernel
* :mod:`repro.hardware`   -- hosts, disks, max-min-fair network
* :mod:`repro.virt`       -- VMs, images, KVM/Xen hypervisor models
* :mod:`repro.drivers`    -- libvirt-like VMM / transfer / info drivers
* :mod:`repro.one`        -- the OpenNebula analogue (core, scheduler,
  live migration, services, monitoring, EC2 facade)
* :mod:`repro.hdfs`       -- NameNode / DataNodes / replicated writes
* :mod:`repro.mapreduce`  -- JobTracker / TaskTrackers, real user code
* :mod:`repro.search`     -- Nutch/Lucene-like crawler, index, queries
* :mod:`repro.video`      -- FFmpeg-like tool, parallel conversion,
  progressive streaming + player
* :mod:`repro.fusehdfs`   -- FUSE bridge mounting HDFS
* :mod:`repro.web`        -- Lighttpd/MySQL analogues + the VOC portal
* :mod:`repro.chaos`      -- seeded fault injection + recovery reporting
* :func:`repro.build_video_cloud` -- the whole Figure 14 stack in one call,
  with flags for fault tolerance, the self-healing control plane and
  NameNode HA
"""

from .chaos import ChaosMonkey, ChaosReport
from .common.calibration import DEFAULT_CALIBRATION, Calibration
from .hardware import Cluster
from .stack import VideoCloud, build_video_cloud

__version__ = "1.0.0"

__all__ = [
    "Calibration",
    "ChaosMonkey",
    "ChaosReport",
    "Cluster",
    "DEFAULT_CALIBRATION",
    "VideoCloud",
    "__version__",
    "build_video_cloud",
]
