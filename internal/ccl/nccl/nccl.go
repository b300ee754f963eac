// Package nccl models the NVIDIA Collective Communication Library: the
// most mature xCCL, driving NVIDIA GPUs over NVLink/NVSwitch with a wide
// datatype matrix and a large channel budget. Constants are calibrated to
// the paper's §4.2 measurements: 20 µs launch overhead and ~137 GB/s
// intra-node point-to-point bandwidth on DGX A100.
package nccl

import (
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
)

// DefaultVersion is the modern NCCL release modeled by Config.
const DefaultVersion = "2.18.3"

// LegacyVersion is the older release MSCCL embeds (and the baseline used
// in Fig 5d); it drives fewer channels.
const LegacyVersion = "2.12.12"

// BrokenVersion names the 2.18.3 build that failed against the site's
// TensorFlow/Horovod/CUDA combination on ThetaGPU (§4.4). Communicators
// built from it error on every operation, which the xCCL layer survives
// by transparently falling back to the MPI path.
const BrokenVersion = "2.18.3-tf2.4-cuda11.4"

// Config returns the personality of the default NCCL version.
func Config() ccl.Config { return VersionConfig(DefaultVersion) }

// VersionConfig returns the personality of a specific NCCL release.
// Unknown versions fall back to the default.
func VersionConfig(version string) ccl.Config {
	cfg := ccl.Config{
		Name:  "nccl-" + version,
		Kinds: []device.Kind{device.NvidiaGPU},
		Datatypes: map[ccl.Datatype]bool{
			ccl.Int8: true, ccl.Int32: true, ccl.Int64: true,
			ccl.Float16: true, ccl.Float32: true, ccl.Float64: true,
		},
		Ops: map[ccl.RedOp]bool{
			ccl.Sum: true, ccl.Prod: true, ccl.Max: true, ccl.Min: true,
		},
		Launch:           20 * time.Microsecond,
		StepCost:         1200 * time.Nanosecond,
		Channels:         12,
		ChunkBytes:       512 << 10,
		HierChunkBytes:   1 << 20,
		TreeThreshold:    256 << 10,
		InterNodePenalty: 1.0,
	}
	switch version {
	case LegacyVersion:
		// NCCL 2.12 saturates fewer NVLink channels (~112 GB/s measured
		// by the paper under MSCCL) and switches to ring later.
		cfg.Channels = 10
		cfg.TreeThreshold = 128 << 10
		cfg.StepCost = 1600 * time.Nanosecond
	case BrokenVersion:
		cfg.Faults = ccl.StaticFailure(cfg.Name, ccl.ErrInternal)
	}
	return cfg
}

// New creates NCCL communicators over the devices (ncclCommInitAll).
func New(fab *fabric.Fabric, devs []*device.Device) ([]*ccl.Comm, error) {
	return ccl.NewComms(fab, devs, Config())
}

// NewVersion creates communicators for a specific NCCL release.
func NewVersion(fab *fabric.Fabric, devs []*device.Device, version string) ([]*ccl.Comm, error) {
	return ccl.NewComms(fab, devs, VersionConfig(version))
}
