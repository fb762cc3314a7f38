"""Communication substrate: a simulated Thrift-like RPC fabric.

The paper uses Thrift RPC between controllers and agents because it is
efficient and proven at the scale of many thousands of servers.  Here the
fabric is simulated: calls are synchronous (their latency is tracked but
is negligible against the 3 s control cycle), and an injector can fail or
time out calls per-endpoint to exercise Dynamo's estimation and
alerting paths.

:mod:`repro.rpc.resilient` layers a call policy (deadline, bounded
retries with deterministic backoff) and per-endpoint circuit breakers on
top of any :class:`Transport`, feeding per-endpoint health history.
"""
