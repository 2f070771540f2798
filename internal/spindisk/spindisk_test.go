package spindisk

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/tagspin/tagspin/internal/geom"
)

func testDisk() Disk {
	return Disk{Center: geom.V3(0.4, 0, 0), Radius: 0.10, Omega: math.Pi}
}

func TestDiskValidate(t *testing.T) {
	if err := testDisk().Validate(); err != nil {
		t.Errorf("valid disk rejected: %v", err)
	}
	bad := testDisk()
	bad.Radius = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative radius accepted")
	}
	bad = testDisk()
	bad.Omega = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero omega accepted")
	}
	bad = testDisk()
	bad.Mount = Mount(99)
	if err := bad.Validate(); err == nil {
		t.Error("unknown mount accepted")
	}
}

func TestDiskAngle(t *testing.T) {
	d := testDisk() // ω = π rad/s → half a turn per second
	if got := d.Angle(0); got != 0 {
		t.Errorf("Angle(0) = %v", got)
	}
	if got := d.Angle(time.Second); math.Abs(got-math.Pi) > 1e-9 {
		t.Errorf("Angle(1s) = %v, want π", got)
	}
	if got := d.Angle(2 * time.Second); math.Abs(got) > 1e-9 && math.Abs(got-2*math.Pi) > 1e-9 {
		t.Errorf("Angle(2s) = %v, want 0 (full turn)", got)
	}
	d.Theta0 = 1
	if got := d.Angle(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("Theta0 ignored: %v", got)
	}
}

func TestTagPositionOnRim(t *testing.T) {
	d := testDisk()
	p0 := d.TagPositionAt(0)
	want := geom.V3(0.5, 0, 0)
	if p0.DistanceTo(want) > 1e-12 {
		t.Errorf("position at angle 0 = %v, want %v", p0, want)
	}
	pHalf := d.TagPositionAt(math.Pi)
	if pHalf.DistanceTo(geom.V3(0.3, 0, 0)) > 1e-12 {
		t.Errorf("position at π = %v", pHalf)
	}
	// The tag always stays exactly Radius from the center, at the center's z.
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		p := d.TagPositionAt(a)
		return math.Abs(p.DistanceTo(d.Center)-d.Radius) < 1e-9 && p.Z == d.Center.Z
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCenterMount(t *testing.T) {
	d := testDisk()
	d.Mount = MountCenter
	for _, a := range []float64{0, 1, 2, 3} {
		if p := d.TagPositionAt(a); p.DistanceTo(d.Center) != 0 {
			t.Errorf("center-mounted tag moved to %v at angle %v", p, a)
		}
	}
	// But its plane still rotates.
	if d.TagPlaneAngle(1) == d.TagPlaneAngle(2) {
		t.Error("center-mounted plane should rotate")
	}
}

func TestOrientationTo(t *testing.T) {
	d := testDisk()
	// Edge-mounted tag at disk angle 0 sits at (0.5, 0); its plane is
	// tangential (pointing +y, i.e. π/2). For a reader due east (azimuth 0)
	// the orientation ρ is π/2: plane perpendicular to the sight line.
	rho := d.OrientationTo(0, 0)
	if math.Abs(rho-math.Pi/2) > 1e-12 {
		t.Errorf("ρ = %v, want π/2", rho)
	}
	// A quarter turn later the plane is parallel to the sight line.
	rho = d.OrientationTo(math.Pi/2, 0)
	if math.Abs(rho-math.Pi) > 1e-12 {
		t.Errorf("ρ = %v, want π", rho)
	}
}

func TestPeriod(t *testing.T) {
	d := testDisk()
	if got := d.Period(); math.Abs(got.Seconds()-2) > 1e-9 {
		t.Errorf("Period = %v, want 2s", got)
	}
	d.Omega = -2 * math.Pi
	if got := d.Period(); math.Abs(got.Seconds()-1) > 1e-9 {
		t.Errorf("negative-ω Period = %v, want 1s", got)
	}
}

func TestMountString(t *testing.T) {
	if MountEdge.String() != "edge" || MountCenter.String() != "center" {
		t.Error("mount names wrong")
	}
	if Mount(42).String() == "" {
		t.Error("unknown mount should still render")
	}
}

func TestActuatorPerfect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, err := NewActuator(testDisk(), ActuatorConfig{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if a.SurveyError() != (geom.Vec3{}) {
		t.Errorf("perfect actuator has survey error %v", a.SurveyError())
	}
	if got := a.TrueAngle(time.Second); math.Abs(got-math.Pi) > 1e-9 {
		t.Errorf("TrueAngle = %v, want π", got)
	}
	if a.TruePosition(0).DistanceTo(geom.V3(0.5, 0, 0)) > 1e-12 {
		t.Error("TruePosition wrong")
	}
}

func TestActuatorImperfections(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := ActuatorConfig{JitterStd: 0.01, SurveyStd: 0.005}
	a, err := NewActuator(testDisk(), cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if a.SurveyError() == (geom.Vec3{}) {
		t.Error("survey error should be drawn")
	}
	if a.SurveyError().Z != 0 {
		t.Error("survey error must stay horizontal")
	}
	if a.TrueCenter().Sub(a.Nominal().Center).Sub(a.SurveyError()).Norm() > 1e-12 {
		t.Error("TrueCenter inconsistent with SurveyError")
	}
	// Jittered angles fluctuate around the ideal.
	var devs []float64
	for i := 0; i < 2000; i++ {
		dev := geom.WrapToPi(a.TrueAngle(time.Second) - a.Nominal().Angle(time.Second))
		devs = append(devs, dev)
	}
	var mean, varsum float64
	for _, d := range devs {
		mean += d
	}
	mean /= float64(len(devs))
	for _, d := range devs {
		varsum += (d - mean) * (d - mean)
	}
	std := math.Sqrt(varsum / float64(len(devs)))
	if math.Abs(std-0.01) > 0.002 {
		t.Errorf("jitter std = %v, want ≈0.01", std)
	}
}

func TestActuatorErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bad := testDisk()
	bad.Omega = 0
	if _, err := NewActuator(bad, ActuatorConfig{}, rng); err == nil {
		t.Error("invalid disk accepted")
	}
	if _, err := NewActuator(testDisk(), ActuatorConfig{JitterStd: -1}, rng); err == nil {
		t.Error("negative jitter accepted")
	}
}

func TestVerticalDisk(t *testing.T) {
	d := VerticalDisk{Center: geom.V3(0, 0, 1), Radius: 0.1, Omega: math.Pi, PlaneAzimuth: 0}
	if p := d.TagPositionAt(0); p.DistanceTo(geom.V3(0.1, 0, 1)) > 1e-12 {
		t.Errorf("angle 0 position = %v", p)
	}
	if p := d.TagPositionAt(math.Pi / 2); p.DistanceTo(geom.V3(0, 0, 1.1)) > 1e-12 {
		t.Errorf("angle π/2 position = %v", p)
	}
	// Rotate the plane to the y-z plane.
	d.PlaneAzimuth = math.Pi / 2
	if p := d.TagPositionAt(0); p.DistanceTo(geom.V3(0, 0.1, 1)) > 1e-12 {
		t.Errorf("rotated plane position = %v", p)
	}
	if got := d.Angle(time.Second); math.Abs(got-math.Pi) > 1e-9 {
		t.Errorf("Angle = %v", got)
	}
}

// TestDiskValidateRejectsAbsurdGeometry pins the finite-geometry and
// radius-bound checks: each of these disks used to validate, and the
// spectrum engine then sized its harmonic buffers from the radius.
func TestDiskValidateRejectsAbsurdGeometry(t *testing.T) {
	for name, mutate := range map[string]func(*Disk){
		"radius NaN":      func(d *Disk) { d.Radius = math.NaN() },
		"radius +Inf":     func(d *Disk) { d.Radius = math.Inf(1) },
		"radius 1e15":     func(d *Disk) { d.Radius = 1e15 },
		"radius over max": func(d *Disk) { d.Radius = MaxRadius * 1.01 },
		"omega NaN":       func(d *Disk) { d.Omega = math.NaN() },
		"omega -Inf":      func(d *Disk) { d.Omega = math.Inf(-1) },
		"theta0 NaN":      func(d *Disk) { d.Theta0 = math.NaN() },
		"center x Inf":    func(d *Disk) { d.Center.X = math.Inf(1) },
		"center z NaN":    func(d *Disk) { d.Center.Z = math.NaN() },
	} {
		d := testDisk()
		mutate(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	d := testDisk()
	d.Radius = MaxRadius
	if err := d.Validate(); err != nil {
		t.Errorf("radius at the bound rejected: %v", err)
	}
}
