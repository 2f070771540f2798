// Package spindisk models the rotating disk that turns an ordinary passive
// tag into a circular synthetic-aperture antenna array (§II). A disk has a
// center, a radius, a uniform angular velocity, and a tag mounted either on
// its rim (normal operation) or at its center (the orientation-calibration
// prelude of §III-B).
package spindisk

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/tagspin/tagspin/internal/geom"
)

// Mount describes where the tag sits on the disk.
type Mount int

const (
	// MountEdge places the tag on the rim, tangential to the circle. This
	// is the normal Tagspin configuration; the tag sweeps the circular
	// aperture.
	MountEdge Mount = iota + 1
	// MountCenter places the tag at the disk center. Its distance to the
	// reader never changes, isolating the orientation effect (§III-B).
	MountCenter
)

// String implements fmt.Stringer.
func (m Mount) String() string {
	switch m {
	case MountEdge:
		return "edge"
	case MountCenter:
		return "center"
	default:
		return fmt.Sprintf("Mount(%d)", int(m))
	}
}

// Disk describes one spinning-tag installation. Disks rotate in a plane
// parallel to the horizontal (x-y) plane, as in the paper's experiments;
// the future-work vertical disk is modelled by VerticalDisk in this package.
type Disk struct {
	// Center is the disk center (the origin O of §III-A).
	Center geom.Vec3
	// Radius is the rim radius r in meters (default 0.10 m).
	Radius float64
	// Omega is the angular velocity ω in rad/s.
	Omega float64
	// Theta0 is the tag's angular position on the disk at t = 0.
	Theta0 float64
	// Mount selects rim or center mounting. Zero value means MountEdge.
	Mount Mount
}

// MaxRadius is the largest disk radius Validate accepts, in meters. Real
// spinning-tag rigs are tabletop motor disks a few tens of centimeters
// across, so 10 m is far beyond any of them. The bound exists because
// spectrum cost grows with the aperture scale 4πr/λ: the harmonic azimuth
// synthesis expands every snapshot in ⌈4πr/λ⌉+20 Bessel harmonics, so an
// unchecked radius such as 1e15 m sizes buffers without bound. At 10 m
// and UHF (λ ≈ 0.33 m) the expansion stays near 400 harmonics.
const MaxRadius = 10.0

// Validate checks the disk's physical parameters.
func (d Disk) Validate() error {
	for _, v := range []float64{d.Radius, d.Omega, d.Theta0, d.Center.X, d.Center.Y, d.Center.Z} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("spindisk: non-finite geometry (center %v, radius %v, omega %v, theta0 %v)",
				d.Center, d.Radius, d.Omega, d.Theta0)
		}
	}
	if d.Radius < 0 {
		return fmt.Errorf("spindisk: negative radius %v", d.Radius)
	}
	if d.Radius > MaxRadius {
		return fmt.Errorf("spindisk: radius %v m above the %v m bound", d.Radius, MaxRadius)
	}
	if d.Omega == 0 {
		return fmt.Errorf("spindisk: zero angular velocity")
	}
	if d.Mount != 0 && d.Mount != MountEdge && d.Mount != MountCenter {
		return fmt.Errorf("spindisk: unknown mount %d", d.Mount)
	}
	return nil
}

// mount returns the effective mount, defaulting to MountEdge.
func (d Disk) mount() Mount {
	if d.Mount == 0 {
		return MountEdge
	}
	return d.Mount
}

// Angle returns the tag's angular position ωt + θ0 at time t, in [0, 2π).
func (d Disk) Angle(t time.Duration) float64 {
	return geom.NormalizeAngle(d.Omega*t.Seconds() + d.Theta0)
}

// TagPosition returns the tag's world position at time t.
func (d Disk) TagPosition(t time.Duration) geom.Vec3 {
	return d.TagPositionAt(d.Angle(t))
}

// TagPositionAt returns the tag's world position when its disk angle is a.
func (d Disk) TagPositionAt(a float64) geom.Vec3 {
	if d.mount() == MountCenter {
		return d.Center
	}
	return d.Center.Add(geom.V3(d.Radius*math.Cos(a), d.Radius*math.Sin(a), 0))
}

// TagPlaneAngle returns the absolute azimuthal angle of the tag's antenna
// plane at disk angle a. An edge-mounted tag is tangential to the rim, so
// its plane leads the radial direction by π/2; a center-mounted tag's plane
// simply co-rotates with the disk.
func (d Disk) TagPlaneAngle(a float64) float64 {
	if d.mount() == MountCenter {
		return geom.NormalizeAngle(a)
	}
	return geom.NormalizeAngle(a + math.Pi/2)
}

// OrientationTo returns ρ, the angle between the tag plane and the sight
// line from the disk center to an observer at the given azimuth (§III-B).
func (d Disk) OrientationTo(a, observerAzimuth float64) float64 {
	return geom.NormalizeAngle(d.TagPlaneAngle(a) - observerAzimuth)
}

// Period returns the rotation period of the disk.
func (d Disk) Period() time.Duration {
	return time.Duration(2 * math.Pi / math.Abs(d.Omega) * float64(time.Second))
}

// Actuator wraps a Disk with motor imperfections: angular jitter around the
// ideal uniform rotation and a survey error between the disk's true center
// and the center recorded in the registry. The localization algorithm only
// ever sees the *nominal* disk; the actuator is what the simulated world
// uses.
type Actuator struct {
	disk        Disk
	jitterStd   float64
	trueCenter  geom.Vec3
	surveyError geom.Vec3
	rng         *rand.Rand
}

// ActuatorConfig configures motor and survey imperfections.
type ActuatorConfig struct {
	// JitterStd is the standard deviation, in radians, of the zero-mean
	// angular error between the true tag angle and the ideal ωt + θ0.
	JitterStd float64
	// SurveyStd is the standard deviation, in meters, of each horizontal
	// component of the disk-center survey error.
	SurveyStd float64
}

// NewActuator builds an actuator for disk with the given imperfections,
// drawing the survey error once from rng.
func NewActuator(disk Disk, cfg ActuatorConfig, rng *rand.Rand) (*Actuator, error) {
	if err := disk.Validate(); err != nil {
		return nil, err
	}
	if cfg.JitterStd < 0 || cfg.SurveyStd < 0 {
		return nil, fmt.Errorf("spindisk: negative imperfection std")
	}
	var survey geom.Vec3
	if cfg.SurveyStd > 0 {
		survey = geom.V3(rng.NormFloat64()*cfg.SurveyStd, rng.NormFloat64()*cfg.SurveyStd, 0)
	}
	return &Actuator{
		disk:        disk,
		jitterStd:   cfg.JitterStd,
		trueCenter:  disk.Center.Add(survey),
		surveyError: survey,
		rng:         rng,
	}, nil
}

// Nominal returns the disk as recorded in the registry (no imperfections).
func (a *Actuator) Nominal() Disk { return a.disk }

// TrueCenter returns the actual disk center including survey error.
func (a *Actuator) TrueCenter() geom.Vec3 { return a.trueCenter }

// SurveyError returns the difference between true and nominal centers.
func (a *Actuator) SurveyError() geom.Vec3 { return a.surveyError }

// TrueAngle returns the tag's actual disk angle at time t, including motor
// jitter.
func (a *Actuator) TrueAngle(t time.Duration) float64 {
	jitter := 0.0
	if a.jitterStd > 0 {
		jitter = a.rng.NormFloat64() * a.jitterStd
	}
	return geom.NormalizeAngle(a.disk.Angle(t) + jitter)
}

// TruePosition returns the tag's actual world position at disk angle angle.
func (a *Actuator) TruePosition(angle float64) geom.Vec3 {
	shifted := a.disk
	shifted.Center = a.trueCenter
	return shifted.TagPositionAt(angle)
}

// VerticalDisk models the paper's future-work extension: a disk rotating in
// a vertical plane (containing the z axis) to add aperture diversity along
// z. The disk plane contains the z-axis and the horizontal direction at
// azimuth PlaneAzimuth.
type VerticalDisk struct {
	Center       geom.Vec3
	Radius       float64
	Omega        float64
	Theta0       float64
	PlaneAzimuth float64
}

// Angle returns the tag's angular position at time t in [0, 2π).
func (d VerticalDisk) Angle(t time.Duration) float64 {
	return geom.NormalizeAngle(d.Omega*t.Seconds() + d.Theta0)
}

// TagPositionAt returns the tag's world position when its disk angle is a.
// Angle 0 points along the horizontal direction of the disk plane; angle
// π/2 points straight up.
func (d VerticalDisk) TagPositionAt(a float64) geom.Vec3 {
	h := geom.V3(math.Cos(d.PlaneAzimuth), math.Sin(d.PlaneAzimuth), 0)
	return d.Center.Add(h.Scale(d.Radius * math.Cos(a))).Add(geom.V3(0, 0, d.Radius*math.Sin(a)))
}
