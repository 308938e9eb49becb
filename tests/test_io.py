import numpy as np

from fractop import export
from fractop import forward as fwd
from fractop import mesh as fm
from fractop.material import QuadState
from fractop.optimizer import ConvergenceRecord

from conftest import make_cantilever

GOLDEN_SNAPSHOT = """# vtk DataFile Version 3.0
fractop fields
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 4 double
0 0 0
1 0 0
0 1 0
1 1 0
CELLS 1 5
4 0 1 3 2
CELL_TYPES 1
9
POINT_DATA 4
VECTORS displacement double
0 0 0
0 0 0
0 0 0
0 0 0
SCALARS crack double 1
LOOKUP_TABLE default
0
0
0
0
SCALARS phi double 1
LOOKUP_TABLE default
1
1
1
1
SCALARS heaviside double 1
LOOKUP_TABLE default
1
1
1
1
CELL_DATA 1
SCALARS alpha double 1
LOOKUP_TABLE default
0
SCALARS history double 1
LOOKUP_TABLE default
0
"""


def single_element_fields():
    mesh = fm.build_structured_mesh(2, [1, 1], [1.0, 1.0])
    fields = fwd.FieldSet(u=np.zeros(8), d=np.zeros(4), phi=np.ones(4),
                          p_u=np.zeros(8))
    return mesh, fields, QuadState.zeros((1, 4))


class TestSnapshot:
    def test_golden_file_byte_match(self, tmp_path):
        mesh, fields, qstate = single_element_fields()
        path = tmp_path / "snap.vtk"
        export.write_snapshot(path, mesh, fields, qstate)
        assert path.read_text() == GOLDEN_SNAPSHOT

    def test_crack_field_roundtrip_at_print_precision(self, tmp_path):
        mesh, fields, qstate = single_element_fields()
        fields.d = np.array([0.123456789123, 0.5, 1.0, 1e-11])
        path = tmp_path / "snap.vtk"
        export.write_snapshot(path, mesh, fields, qstate)
        lines = path.read_text().splitlines()
        start = lines.index("SCALARS crack double 1") + 2
        written = [float(v) for v in lines[start:start + 4]]
        # 9 significant digits survive the round trip
        assert np.allclose(written, fields.d, rtol=1e-8, atol=0)

    def test_deterministic_bytes(self, tmp_path):
        mesh, fields, qstate = single_element_fields()
        a = tmp_path / "a.vtk"
        b = tmp_path / "b.vtk"
        export.write_snapshot(a, mesh, fields, qstate)
        export.write_snapshot(b, mesh, fields, qstate)
        assert a.read_bytes() == b.read_bytes()


class TestCadence:
    def test_cadence_includes_final_step(self):
        assert export.snapshot_steps(35, 10) == [10, 20, 30, 35]

    def test_cadence_zero_writes_final_only(self):
        assert export.snapshot_steps(35, 0) == [35]

    def test_cadence_multiple_of_steps(self):
        assert export.snapshot_steps(30, 10) == [10, 20, 30]


class TestCurves:
    def test_elastic_run_reaction_linear(self, tmp_path):
        prob = make_cantilever()
        traj = fwd.run_load_history(prob, 4, -1e-3)
        path = tmp_path / "curves.csv"
        export.write_curves(path, traj)
        data = np.genfromtxt(path, delimiter=",", names=True)
        u = data["prescribed_displacement"][1:]
        p = data["total_reaction"][1:]
        coeffs = np.polyfit(u, p, 1)
        resid = p - np.polyval(coeffs, u)
        ss_tot = ((p - p.mean()) ** 2).sum()
        assert 1.0 - (resid ** 2).sum() / ss_tot > 1.0 - 1e-10

    def test_header_contract(self, tmp_path):
        prob = make_cantilever()
        traj = fwd.run_load_history(prob, 1, -1e-3)
        path = tmp_path / "curves.csv"
        export.write_curves(path, traj)
        assert path.read_text().splitlines()[0] == \
            "step,prescribed_displacement,total_reaction"

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "history.csv"
        export.write_history(path, [])
        assert path.read_text() == \
            "iteration,objective,volume_ratio,lambda_v\n"

    def test_history_rows(self, tmp_path):
        recs = [ConvergenceRecord(iteration=1, objective=1.23456789123e-4,
                                  volume_ratio=0.97, lambda_v=1.0,
                                  bisection_iterations=12)]
        path = tmp_path / "history.csv"
        export.write_history(path, recs)
        lines = path.read_text().splitlines()
        assert lines[1] == "1,0.000123456789,0.97,1"
