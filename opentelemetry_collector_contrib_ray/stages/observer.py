"""observer extension: k8s pod→endpoint conversion + diffing, and the
ECS observer's scrape-target matchers.

These feed the declarative pipeline builder (receivercreator) — they
are discovery/control-plane logic, validated by ported-semantics
tests. Semantics (file:line under /root/reference):

k8sobserver (extension/observer/k8sobserver/handler.go):
* convertPodToEndpoints (:46-100): one pod endpoint
  (id "<ns-token>/<uid>", target = pod IP) plus one endpoint per
  container PORT of each container whose status is RUNNING —
  id "<podID>/<portName>(<port>)", target "ip:port", transport
  tcp/udp/unknown (:101-109).
* OnUpdate diffing (:112-168): endpoints present in both old and new
  are "updated" only when their payload changed; new-only are added,
  old-only are removed.

ecsobserver (extension/observer/ecsobserver/):
* docker-label matcher (docker_label.go:79-135): container must carry
  the port label; a non-integer label value is an ERROR (not a
  silent skip); the port must also exist in the container's port
  mappings; metrics path / job name come from their labels, and a
  config-level job name OVERRIDES the label.
* service matcher (service.go:93-104): service name regex (tasks
  without service info never match), then container-name regex +
  metrics_ports intersection (matcher.go:185-206).
* task-definition matcher (task_definition.go:94-101): ARN regex then
  the same container logic.
* matchContainers (matcher.go:146-178): per-matcher sweep over
  tasks × containers collecting matched targets; container-level
  errors are collected without aborting the sweep.
* MergeTargets (matcher.go:88-100): targets keyed by
  (port, metrics_path); duplicates keep the EXISTING target.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


def pod_to_endpoints(pod: dict, id_namespace: str = "k8s_observer") -> list[dict]:
    """handler.go:46-100. ``pod``: {uid, name, namespace, ip, labels,
    annotations, containers: [{name, running, ports: [{name, port,
    protocol}]}]}."""
    pod_id = f"{id_namespace}/{pod['uid']}"
    pod_details = {
        "uid": pod["uid"],
        "name": pod.get("name", ""),
        "namespace": pod.get("namespace", ""),
        "labels": dict(pod.get("labels") or {}),
        "annotations": dict(pod.get("annotations") or {}),
    }
    endpoints = [{"id": pod_id, "target": pod.get("ip", ""), "pod": pod_details}]
    running = {
        c["name"] for c in pod.get("containers", ()) if c.get("running")
    }
    for c in pod.get("containers", ()):
        if c["name"] not in running:
            continue
        for p in c.get("ports", ()):
            proto = (p.get("protocol") or "").upper()
            endpoints.append(
                {
                    "id": f"{pod_id}/{p.get('name', '')}({p['port']})",
                    "target": f"{pod.get('ip', '')}:{p['port']}",
                    "pod": pod_details,
                    "port": int(p["port"]),
                    "port_name": p.get("name", ""),
                    "transport": {"TCP": "tcp", "UDP": "udp"}.get(proto, "unknown"),
                }
            )
    return endpoints


def diff_endpoints(
    old: list[dict], new: list[dict]
) -> tuple[list[dict], list[dict], list[dict]]:
    """OnUpdate semantics (handler.go:112-168) → (added, updated,
    removed)."""
    old_by_id = {e["id"]: e for e in old}
    new_by_id = {e["id"]: e for e in new}
    added, updated = [], []
    for eid, e in new_by_id.items():
        if eid in old_by_id:
            if old_by_id[eid] != e:
                updated.append(e)
        else:
            added.append(e)
    removed = [e for eid, e in old_by_id.items() if eid not in new_by_id]
    return added, updated, removed


# ---------------------------------------------------------------------------
# ecsobserver matchers
# ---------------------------------------------------------------------------

NOT_MATCHED = object()  # errNotMatched sentinel (matcher.go:139-141)


@dataclass
class MatchedTarget:
    matcher_type: str = ""
    matcher_index: int = 0
    port: int = 0
    metrics_path: str = ""
    job: str = ""


@dataclass
class MatchedContainer:
    task_index: int
    container_index: int
    targets: list = field(default_factory=list)

    def merge_targets(self, new_targets: list):
        """matcher.go:88-100 — key (port, metrics_path), existing wins."""
        for newt in new_targets:
            if any(
                old.port == newt.port and old.metrics_path == newt.metrics_path
                for old in self.targets
            ):
                continue
            self.targets.append(newt)


def _match_container_by_name(name_regex, cfg: dict, container: dict):
    """matcher.go:185-206: optional container-name regex, then ports
    from the metrics_ports ∩ port-mapping intersection."""
    if name_regex is not None and not name_regex.search(container.get("name", "")):
        return NOT_MATCHED
    metrics_ports = set(cfg.get("metrics_ports", ()))
    targets = []
    for pm in container.get("port_mappings", ()):
        port = int(pm)
        if port in metrics_ports:
            targets.append(
                MatchedTarget(
                    port=port,
                    metrics_path=cfg.get("metrics_path", ""),
                    job=cfg.get("job_name", ""),
                )
            )
    return targets


class DockerLabelMatcher:
    """docker_label.go:64-135."""

    type = "docker_label"

    def __init__(self, cfg: dict):
        if cfg.get("metrics_ports"):
            raise ValueError(
                f"metrics_ports is not supported in docker_labels, "
                f"got {cfg['metrics_ports']}"
            )
        if not cfg.get("port_label"):
            raise ValueError("port_label is empty")
        self.cfg = cfg

    def match_targets(self, task: dict, container: dict):
        labels = container.get("docker_labels") or {}
        port_s = labels.get(self.cfg["port_label"])
        if port_s is None:
            return NOT_MATCHED
        try:
            port = int(port_s)
        except ValueError as exc:
            raise ValueError(
                f"invalid port_label value, container={container.get('name')} "
                f"labelKey={self.cfg['port_label']} labelValue={port_s}"
            ) from exc
        if port not in {int(p) for p in container.get("port_mappings", ())}:
            return NOT_MATCHED
        target = MatchedTarget(port=port)
        if self.cfg.get("metrics_path_label") in labels:
            target.metrics_path = labels[self.cfg["metrics_path_label"]]
        if self.cfg.get("job_name_label") in labels:
            target.job = labels[self.cfg["job_name_label"]]
        if self.cfg.get("job_name"):  # config job name OVERRIDES the label
            target.job = self.cfg["job_name"]
        return [target]


class ServiceMatcher:
    """service.go:41-104."""

    type = "service"

    def __init__(self, cfg: dict):
        if not cfg.get("name_pattern"):
            raise ValueError("name_pattern is empty")
        self.name_regex = re.compile(cfg["name_pattern"])
        pat = cfg.get("container_name_pattern")
        self.container_regex = re.compile(pat) if pat else None
        self.cfg = cfg

    def match_targets(self, task: dict, container: dict):
        service = task.get("service")
        if not service:
            return NOT_MATCHED
        if not self.name_regex.search(service):
            return NOT_MATCHED
        return _match_container_by_name(self.container_regex, self.cfg, container)


class TaskDefinitionMatcher:
    """task_definition.go:61-101."""

    type = "task_definition"

    def __init__(self, cfg: dict):
        if not cfg.get("arn_pattern"):
            raise ValueError("arn_pattern is empty")
        self.arn_regex = re.compile(cfg["arn_pattern"])
        pat = cfg.get("container_name_pattern")
        self.container_regex = re.compile(pat) if pat else None
        self.cfg = cfg

    def match_targets(self, task: dict, container: dict):
        if not self.arn_regex.search(task.get("task_definition_arn", "")):
            return NOT_MATCHED
        return _match_container_by_name(self.container_regex, self.cfg, container)


def match_containers(tasks: list[dict], matcher, matcher_index: int = 0):
    """matcher.go:146-178 → ({'tasks': [...], 'containers': [...]},
    errors). Container-level errors collect without aborting."""
    matched_tasks: list[int] = []
    matched_containers: list[MatchedContainer] = []
    errors: list[str] = []
    for t_index, task in enumerate(tasks):
        matched: list[MatchedContainer] = []
        for c_index, container in enumerate(task.get("containers", ())):
            try:
                targets = matcher.match_targets(task, container)
            except ValueError as exc:
                errors.append(str(exc))
                continue
            if targets is NOT_MATCHED:
                continue
            targets = [
                MatchedTarget(
                    matcher_type=matcher.type,
                    matcher_index=matcher_index,
                    port=t.port,
                    metrics_path=t.metrics_path,
                    job=t.job,
                )
                for t in targets
            ]
            matched.append(
                MatchedContainer(
                    task_index=t_index, container_index=c_index, targets=targets
                )
            )
        if matched:
            matched_tasks.append(t_index)
            matched_containers.extend(matched)
    return {"tasks": matched_tasks, "containers": matched_containers}, errors
