"""Correctness gate of the campaign benchmark.

Every timed run is compared against a reference run of the same
workload and seed made at --jobs 1 without a fleet.  Campaign outputs
are deterministic from the scenario seed, so every byte must match.

* Per-unit records (classification results-CSV rows, per-image
  detections) are compared one by one: a differing or missing record
  fails the units it belongs to.
* Whole-run artifacts (fault matrix, injection trace, fault-free CSV,
  ground truth, scenario echo) cannot be split by unit: a difference
  fails every unit of the run.
* metrics.json `units.total` must equal the workload's unit count.
* A non-zero exit fails every unit of the run.
"""

import json
import os
from collections import defaultdict


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def _csv_records(path):
    """Data rows of a results CSV (header dropped), as raw byte lines."""
    lines = _read(path).split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    return lines[1:]


def _detections_by_image(path):
    """Detections JSON -> {image_id: canonical JSON of its detections}."""
    with open(path) as f:
        detections = json.load(f)
    grouped = defaultdict(list)
    for d in detections:
        grouped[d["image_id"]].append(d)
    return {k: json.dumps(v, sort_keys=True) for k, v in grouped.items()}


def output_files(task, model):
    """(per-unit record files, whole-run files) of a campaign output dir."""
    if task == "imgclass":
        return ([model + "_results.csv"],
                [model + "_fault_free.csv", model + "_faults.bin",
                 model + "_trace.bin", model + "_scenario.yml"])
    return ([model + "_corr_detections.json", model + "_orig_detections.json"],
            [model + "_ground_truth.json", model + "_faults.bin",
             model + "_trace.bin", model + "_scenario.yml"])


def compare_run(task, model, ref_dir, run_dir, units, images_per_unit,
                dataset_size, exit_code=0, units_total=None):
    """Number of failed units of one run, and the reasons.

    `units` is the run's unit count; a classification results-CSV row r
    belongs to unit r // images_per_unit; a detection of image i belongs
    to every unit i + k * dataset_size (one per epoch).
    """
    if exit_code != 0:
        return units, ["exit code %d" % exit_code]
    if units_total is not None and units_total != units:
        return units, ["units.total %s != %d" % (units_total, units)]
    record_files, whole_files = output_files(task, model)
    reasons = []
    for name in whole_files:
        ref_path = os.path.join(ref_dir, name)
        run_path = os.path.join(run_dir, name)
        if not os.path.exists(run_path):
            return units, ["missing " + name]
        if _read(ref_path) != _read(run_path):
            return units, [name + " differs"]
    failed = set()
    for name in record_files:
        ref_path = os.path.join(ref_dir, name)
        run_path = os.path.join(run_dir, name)
        if not os.path.exists(run_path):
            return units, ["missing " + name]
        if task == "imgclass":
            ref_rows, run_rows = _csv_records(ref_path), _csv_records(run_path)
            for r in range(max(len(ref_rows), len(run_rows))):
                ref_row = ref_rows[r] if r < len(ref_rows) else None
                run_row = run_rows[r] if r < len(run_rows) else None
                if ref_row != run_row:
                    failed.add(min(r // images_per_unit, units - 1))
        else:
            try:
                ref_det, run_det = (_detections_by_image(ref_path),
                                    _detections_by_image(run_path))
            except (ValueError, KeyError, TypeError):
                return units, [name + " unreadable"]
            for image in set(ref_det) | set(run_det):
                if ref_det.get(image) != run_det.get(image):
                    failed.update(u for u in range(int(image), units, dataset_size))
        if failed and not reasons:
            reasons.append(name + " differs")
    return len(failed), reasons
