#!/usr/bin/env python3
"""Tests of the benchmark's correctness gate (gate.py).

    python3 perfbench/test_gate.py

Builds synthetic reference output directories and checks that the gate
counts exactly the units whose records differ, fails whole runs on
whole-run artifacts, exit codes and unit totals, and passes identical
outputs.  Scratch files go under .bench_build/ of the checkout.
"""

import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import gate  # noqa: E402

SCRATCH = os.path.join(os.path.dirname(HERE), ".bench_build", "test_gate")


def write(path, data):
    with open(path, "wb") as f:
        f.write(data if isinstance(data, bytes) else data.encode())


class GateTest(unittest.TestCase):
    def setUp(self):
        os.makedirs(SCRATCH, exist_ok=True)
        self.dir = tempfile.mkdtemp(dir=SCRATCH)
        self.ref = os.path.join(self.dir, "ref")
        self.run = os.path.join(self.dir, "run")

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- classification: 8 images x 2 runs, per_image -> 16 units --------------

    def make_imgclass(self, rows=16):
        os.makedirs(self.ref)
        csv = "image_id,due,sde\n" + "".join("%d,0,%d\n" % (r % 8, r % 3) for r in range(rows))
        write(os.path.join(self.ref, "m_results.csv"), csv)
        write(os.path.join(self.ref, "m_fault_free.csv"), "image_id,top1\n0,1\n")
        write(os.path.join(self.ref, "m_faults.bin"), b"\x01\x02\x03")
        write(os.path.join(self.ref, "m_trace.bin"), b"\x04\x05")
        write(os.path.join(self.ref, "m_scenario.yml"), "run: {}\n")
        shutil.copytree(self.ref, self.run)

    def imgclass(self, images_per_unit=1, units=16, **kw):
        return gate.compare_run("imgclass", "m", self.ref, self.run, units,
                                images_per_unit, 8, **kw)[0]

    def edit_row(self, row, text):
        path = os.path.join(self.run, "m_results.csv")
        lines = open(path).read().split("\n")
        lines[row + 1] = text
        write(path, "\n".join(lines))

    def test_identical_outputs_pass(self):
        self.make_imgclass()
        self.assertEqual(self.imgclass(), 0)

    def test_differing_rows_fail_their_units(self):
        self.make_imgclass()
        self.edit_row(3, "3,1,0")
        self.edit_row(11, "3,1,2")
        self.assertEqual(self.imgclass(), 2)

    def test_per_batch_row_fails_its_batch_unit(self):
        self.make_imgclass()
        self.edit_row(5, "5,1,1")
        self.edit_row(6, "6,1,1")  # same batch of 4 as row 5
        self.assertEqual(self.imgclass(images_per_unit=4, units=4), 1)

    def test_missing_rows_fail(self):
        self.make_imgclass()
        path = os.path.join(self.run, "m_results.csv")
        write(path, "\n".join(open(path).read().split("\n")[:-3]) + "\n")
        self.assertEqual(self.imgclass(), 2)

    def test_whole_run_artifact_fails_every_unit(self):
        self.make_imgclass()
        write(os.path.join(self.run, "m_trace.bin"), b"\x04\x06")
        self.assertEqual(self.imgclass(), 16)

    def test_missing_file_fails_every_unit(self):
        self.make_imgclass()
        os.remove(os.path.join(self.run, "m_faults.bin"))
        self.assertEqual(self.imgclass(), 16)

    def test_nonzero_exit_fails_every_unit(self):
        self.make_imgclass()
        self.assertEqual(self.imgclass(exit_code=1), 16)

    def test_wrong_unit_total_fails_every_unit(self):
        self.make_imgclass()
        self.assertEqual(self.imgclass(units_total=15), 16)
        self.assertEqual(self.imgclass(units_total=16), 0)

    # -- detection: 4 images x 1 run -> 4 units ----------------------------------

    def make_objdet(self):
        os.makedirs(self.ref)
        dets = [{"image_id": i, "category_id": 0, "bbox": [1, 2, 3, 4], "score": 0.5 + i / 10}
                for i in (0, 0, 1, 3)]
        for name in ("m_corr_detections.json", "m_orig_detections.json"):
            write(os.path.join(self.ref, name), json.dumps(dets))
        for name in ("m_ground_truth.json", "m_faults.bin", "m_trace.bin", "m_scenario.yml"):
            write(os.path.join(self.ref, name), "x")
        shutil.copytree(self.ref, self.run)
        return dets

    def objdet(self):
        return gate.compare_run("objdet", "m", self.ref, self.run, 4, 1, 4)[0]

    def test_objdet_identical_pass(self):
        self.make_objdet()
        self.assertEqual(self.objdet(), 0)

    def test_objdet_changed_detection_fails_its_image(self):
        dets = self.make_objdet()
        dets[3]["score"] = 0.1
        write(os.path.join(self.run, "m_corr_detections.json"), json.dumps(dets))
        self.assertEqual(self.objdet(), 1)

    def test_objdet_extra_detection_fails_its_image(self):
        dets = self.make_objdet()
        dets.append({"image_id": 2, "category_id": 1, "bbox": [0, 0, 1, 1], "score": 0.9})
        write(os.path.join(self.run, "m_corr_detections.json"), json.dumps(dets))
        self.assertEqual(self.objdet(), 1)

    def test_objdet_garbage_fails_every_unit(self):
        self.make_objdet()
        write(os.path.join(self.run, "m_corr_detections.json"), "[{")
        self.assertEqual(self.objdet(), 4)


if __name__ == "__main__":
    unittest.main()
