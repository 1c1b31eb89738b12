"""Cross-host sweep cluster (DESIGN.md §15).

One ``repro sweep`` driving many ``repro serve --tcp`` hosts:

* :mod:`repro.cluster.framing` — the newline-JSON wire protocol of
  the TCP listener and its clients (length/limit enforcement,
  structured frame errors);
* :mod:`repro.cluster.client` — blocking dial/send/receive with
  connect timeouts and bounded ECONNREFUSED/EOF retry;
* :mod:`repro.cluster.hosts` — ``HostSpec`` / ``REPRO_HOSTS`` parsing
  and the capability handshake contract;
* :mod:`repro.cluster.pool` — health-checked host pool (handshake,
  periodic re-ping, dead-host bookkeeping);
* :mod:`repro.cluster.dispatch` — the ``RemoteDispatcher`` the
  :class:`~repro.service.supervisor.ShardSupervisor` uses in place of
  forked workers; hosts only simulate, the coordinator owns the lake.

``tests/test_cluster.py`` drives it on in-process hosts and on two real
``repro serve --tcp`` processes, one of which a ``crash`` fault kills.
"""

from repro.cluster.framing import (  # noqa: F401
    PROTOCOL_VERSION,
    STREAM_LIMIT,
    FrameError,
)
from repro.cluster.hosts import HostSpec, parse_hosts  # noqa: F401
from repro.cluster.pool import HostPool, HostState  # noqa: F401
from repro.cluster.dispatch import (  # noqa: F401
    RemoteDispatcher,
    run_clustered,
)
