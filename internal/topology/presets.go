package topology

import (
	"fmt"
	"time"

	"mpixccl/internal/device"
	"mpixccl/internal/sim"
)

// The preset link constants below are calibrated against the paper's §4.2
// point-to-point measurements. The calibration logic, per system:
//
//	ThetaGPU (NVIDIA DGX A100, NVLink/NVSwitch intra, ConnectX-6 HDR inter):
//	  NCCL intra 4 MB latency 56 µs with 137 031 MB/s ⇒ NVLink pool of 12
//	  usable channels at ~11.4 GB/s each (137 GB/s aggregate); a 16-channel
//	  shared pool makes bidirectional traffic land near the measured
//	  181 204 MB/s (< 2×137). Inter-node: 255 µs at 4 MB ⇒ ~18 GB/s.
//	MRI (AMD MI100, PCIe intra, HDR inter):
//	  RCCL intra 6351 MB/s and 836 µs at 4 MB ⇒ 2×3.2 GB/s channels.
//	  Inter 579 µs at 4 MB ⇒ ~7.6 GB/s.
//	Voyager (Habana Gaudi, RoCE-v2 on-chip NICs intra, 400 Gbps inter):
//	  HCCL intra 3044 MB/s, 1651 µs at 4 MB (1377 µs wire + 270 µs launch).
//	  Inter 835 µs at 4 MB ⇒ ~7.4 GB/s: on Gaudi the external fabric is
//	  faster than the port-limited intra-node path, matching the paper.
var (
	// NVLink3 is the DGX A100 NVSwitch fabric.
	NVLink3 = Link{Name: "NVLink3", Alpha: 1800 * time.Nanosecond,
		ChannelBW: 11.42e9, DirChannels: 12, TotalChannels: 16}
	// IBHDRTheta is Mellanox ConnectX-6 HDR as provisioned on ThetaGPU.
	IBHDRTheta = Link{Name: "IB-HDR", Alpha: 2500 * time.Nanosecond,
		ChannelBW: 4.55e9, DirChannels: 4, TotalChannels: 6}
	// PCIe4MRI is the MI100 PCIe path on the MRI cluster.
	PCIe4MRI = Link{Name: "PCIe4", Alpha: 2200 * time.Nanosecond,
		ChannelBW: 3.18e9, DirChannels: 2, TotalChannels: 3}
	// IBHDRMRI is HDR as provisioned on MRI (fewer rails than ThetaGPU).
	IBHDRMRI = Link{Name: "IB-HDR", Alpha: 2800 * time.Nanosecond,
		ChannelBW: 1.9e9, DirChannels: 4, TotalChannels: 6}
	// RoCEGaudi is the Gaudi on-chip RoCE-v2 port set used intra-node.
	RoCEGaudi = Link{Name: "RoCEv2", Alpha: 4000 * time.Nanosecond,
		ChannelBW: 1.02e9, DirChannels: 3, TotalChannels: 4}
	// Arista400G is Voyager's 400 Gbps inter-node Ethernet.
	Arista400G = Link{Name: "Arista-400G", Alpha: 5000 * time.Nanosecond,
		ChannelBW: 1.85e9, DirChannels: 4, TotalChannels: 6}
	// XeLink is the PVC bridge fabric on Aurora-class nodes.
	XeLink = Link{Name: "XeLink", Alpha: 2100 * time.Nanosecond,
		ChannelBW: 10.5e9, DirChannels: 8, TotalChannels: 12}
	// Slingshot11 is the HPE Slingshot inter-node fabric.
	Slingshot11 = Link{Name: "Slingshot-11", Alpha: 2200 * time.Nanosecond,
		ChannelBW: 5.2e9, DirChannels: 4, TotalChannels: 6}
	// PCIeHost is the generic device<->host staging path.
	PCIeHost = Link{Name: "PCIe-host", Alpha: 1500 * time.Nanosecond,
		ChannelBW: 12e9, DirChannels: 1, TotalChannels: 2}
)

// ThetaGPU builds the ALCF ThetaGPU preset: NVIDIA DGX A100 nodes with
// 8 GPUs each (Table 1, column 1). ThetaGPU has 24 such nodes; tests and
// benchmarks usually build fewer.
func ThetaGPU(k *sim.Kernel, nodes int) *System {
	cfg, _ := PresetConfig("thetagpu", nodes)
	return Build(k, cfg)
}

// MRI builds the in-house AMD cluster preset: 2 MI100 GPUs per node
// (Table 1, column 2).
func MRI(k *sim.Kernel, nodes int) *System {
	cfg, _ := PresetConfig("mri", nodes)
	return Build(k, cfg)
}

// Voyager builds the SDSC Voyager preset: 8 Habana Gaudi HPUs per node
// (Table 1, column 3).
func Voyager(k *sim.Kernel, nodes int) *System {
	cfg, _ := PresetConfig("voyager", nodes)
	return Build(k, cfg)
}

// Aurora builds an Aurora-class Intel preset: 6 PVC GPUs per node over
// Xe Link bridges, Slingshot 11 across nodes. Not part of the paper's
// Table 1 — it exercises the oneCCL extension the paper names as future
// work (§6).
func Aurora(k *sim.Kernel, nodes int) *System {
	cfg, _ := PresetConfig("aurora", nodes)
	return Build(k, cfg)
}

// PresetConfig returns the build configuration for a named system without
// instantiating it, for callers that read the link parameters or adjust the
// config before topology.Build. It fails for an unknown name or fewer than
// one node.
func PresetConfig(name string, nodes int) (Config, error) {
	if nodes < 1 {
		return Config{}, fmt.Errorf("topology: %s needs at least one node, got %d", name, nodes)
	}
	switch name {
	case "thetagpu":
		return Config{
			Name: "ThetaGPU", CPU: "AMD EPYC 7742", Memory: "1TB DDR4",
			NumNodes: nodes, DevicesPerNode: 8,
			DeviceSpec: device.SpecA100,
			Intra:      NVLink3, Inter: IBHDRTheta, HostLink: PCIeHost,
		}, nil
	case "mri":
		return Config{
			Name: "MRI", CPU: "AMD EPYC 7713", Memory: "256GB DDR4",
			NumNodes: nodes, DevicesPerNode: 2,
			DeviceSpec: device.SpecMI100,
			Intra:      PCIe4MRI, Inter: IBHDRMRI, HostLink: PCIeHost,
		}, nil
	case "voyager":
		return Config{
			Name: "Voyager", CPU: "Intel Xeon Gold 6336Y", Memory: "512GB DDR4",
			NumNodes: nodes, DevicesPerNode: 8,
			DeviceSpec: device.SpecGaudi,
			Intra:      RoCEGaudi, Inter: Arista400G, HostLink: PCIeHost,
		}, nil
	case "aurora":
		return Config{
			Name: "Aurora", CPU: "Intel Xeon Max 9470", Memory: "512GB DDR5",
			NumNodes: nodes, DevicesPerNode: 6,
			DeviceSpec: device.SpecPVC,
			Intra:      XeLink, Inter: Slingshot11, HostLink: PCIeHost,
		}, nil
	default:
		return Config{}, fmt.Errorf("topology: unknown system %q (want thetagpu, mri, voyager, or aurora)", name)
	}
}

// Preset builds a named system; valid names are "thetagpu", "mri",
// "voyager", and "aurora".
func Preset(k *sim.Kernel, name string, nodes int) (*System, error) {
	cfg, err := PresetConfig(name, nodes)
	if err != nil {
		return nil, err
	}
	return Build(k, cfg), nil
}

// Table1Row summarizes a system for the Table 1 regeneration.
type Table1Row struct {
	System      string
	CPU         string
	Memory      string
	Accelerator string
	PerNode     int
	DeviceMem   string
}

// Table1 returns the hardware-summary rows for the three presets.
func Table1() []Table1Row {
	k := sim.NewKernel()
	rows := make([]Table1Row, 0, 3)
	for _, name := range []string{"thetagpu", "mri", "voyager"} {
		s, err := Preset(k, name, 1)
		if err != nil {
			panic(err)
		}
		d := s.Device(0)
		rows = append(rows, Table1Row{
			System: s.Name, CPU: s.CPU, Memory: s.Memory,
			Accelerator: d.Model, PerNode: s.DevicesPerNode(),
			DeviceMem: fmt.Sprintf("%dGB", d.MemBytes>>30),
		})
	}
	return rows
}
