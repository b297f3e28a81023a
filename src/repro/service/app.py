"""The campaign service proper: registry + scheduler + artifact renderers.

:class:`CampaignService` is what ``conferr serve`` (and the tests) start:
it loads the data directory into a :class:`~repro.service.jobs.JobRegistry`
(requeueing jobs interrupted by a crash), runs a
:class:`~repro.service.scheduler.Scheduler` over it, and exposes the
submit/poll/cancel/render operations the HTTP layer maps routes onto.

Artifact rendering goes through *exactly* the function the CLI prints
with (:func:`~repro.bench.artifacts.render_artifact`, over
``table1_from_store`` & co.), so a table fetched over HTTP is byte-identical to the local
``conferr table1 --from-store <job-store>`` render -- the acceptance
criterion of the service, and the reason results need no new code to be
trusted.  Renders read the job's store concurrently with the appending
writer; the store's reader contract (complete records + at most a torn
tail) makes that safe mid-run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.bench.artifacts import ARTIFACT_NAMES, render_artifact
from repro.core.spec import ExperimentSpec, validation_report
from repro.core.store import ResultStore
from repro.errors import ServiceError, SpecError
from repro.service.jobs import Job, JobRegistry
from repro.service.scheduler import Scheduler

__all__ = ["ARTIFACT_NAMES", "CampaignService", "render_artifact", "SpecRejected"]


class SpecRejected(ServiceError):
    """A submitted spec failed validation; carries the machine-readable report.

    ``report`` is the exact ``{"valid": false, "errors": [...]}`` document
    ``conferr validate --json`` prints -- the HTTP layer returns it
    verbatim as the 400 response body.
    """

    def __init__(self, report: dict[str, Any]):
        self.report = report
        messages = "; ".join(
            error.get("message", "") for error in report.get("errors", ())
        )
        super().__init__(f"spec rejected: {messages}")


class CampaignService:
    """Registry + scheduler composition behind the HTTP API.

    Usable headless (tests drive it directly) or through
    :func:`repro.service.http.serve`.
    """

    def __init__(
        self,
        data_dir: str | Path,
        *,
        jobs_per_tenant: int = 1,
        workers: int = 2,
        poll_interval: float = 0.05,
    ):
        self.registry = JobRegistry(data_dir)
        self.scheduler = Scheduler(
            self.registry,
            jobs_per_tenant=jobs_per_tenant,
            workers=workers,
            poll_interval=poll_interval,
        )

    # ----------------------------------------------------------------- control
    def start(self) -> "CampaignService":
        self.scheduler.start()
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: running jobs are interrupted and requeued."""
        self.scheduler.stop(timeout=timeout)

    def __enter__(self) -> "CampaignService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -------------------------------------------------------------- operations
    def submit(self, tenant: str, spec: ExperimentSpec) -> Job:
        """Validate and enqueue a spec as a new job for ``tenant``.

        Rejections raise :class:`SpecRejected` with the same document the
        ``validate --json`` CLI emits.  Specs may not carry a ``store``
        section: the service owns store placement (one per job, inside the
        tenant's directory) -- anything else would let a job write outside
        its isolation boundary.
        """
        if spec.store is not None:
            raise SpecRejected(
                {
                    "valid": False,
                    "errors": [
                        {
                            "code": "spec/invalid-value",
                            "path": "store",
                            "message": (
                                "the service assigns each job's result store; "
                                "remove the [store] section from the spec"
                            ),
                            "severity": "error",
                        }
                    ],
                }
            )
        report = validation_report(spec)
        if not report["valid"]:
            raise SpecRejected(report)
        return self.registry.submit(tenant, spec)

    def submit_text(self, tenant: str, body: str, *, toml: bool = False) -> Job:
        """Submit a raw spec document (JSON by default, TOML when asked)."""
        try:
            spec = ExperimentSpec.from_toml(body) if toml else ExperimentSpec.from_json(body)
        except SpecError as exc:
            raise SpecRejected(validation_report(exc)) from None
        return self.submit(tenant, spec)

    def job(self, tenant: str, job_id: str) -> Job:
        job = self.registry.get(tenant, job_id)
        if job is None:
            raise ServiceError(f"no job {job_id} for tenant {tenant}")
        return job

    def cancel(self, tenant: str, job_id: str) -> Job:
        job = self.job(tenant, job_id)
        self.registry.request_cancel(job)
        return job

    def artifact(self, tenant: str, job_id: str, name: str) -> str:
        """Render one artifact from a job's store (live reads allowed).

        A job that has not produced a store yet (still QUEUED) has nothing
        to render; anything later -- including mid-RUNNING -- is served
        from whatever complete records are on disk right now.
        """
        job = self.job(tenant, job_id)
        store = ResultStore(job.store_dir)
        if not store.exists():
            raise ServiceError(
                f"job {job_id} has no results yet (state: {job.state})"
            )
        return render_artifact(store, name)

    def health(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "jobs": self.registry.counts(),
            "running_threads": self.scheduler.running_count(),
            "stopping": self.scheduler.stopping,
        }
