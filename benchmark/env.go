package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mcopt/internal/buildinfo"
)

// envStamp records where a run was measured, so a slow host can be told
// apart from a slower program.
type envStamp struct {
	Build      string `json:"build"`
	Revision   string `json:"revision"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	DataFS     string `json:"data_fs"`
}

func readEnv(dataDir string) envStamp {
	e := envStamp{
		Build:      buildinfo.String("mcoptbench"),
		Revision:   buildinfo.Short(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   "unknown",
		Kernel:     "unknown",
		DataFS:     fsType(dataDir),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.modified" {
				e.Dirty = s.Value == "true"
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(data))
	}
	return e
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x9123683E: "btrfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x01021997: "9p", 0x65735546: "fuse",
		0x2FC12FC1: "zfs", 0xF2F52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// probe is a reading of the process and host counters at one instant; two
// probes bracket a measured phase.
type probe struct {
	at                time.Time
	cpu               time.Duration // process user+sys
	wchar, syscw      int64         // /proc/self/io
	allocBytes, alloc uint64
	gcCPU, totalCPU   float64
	steal, hostTotal  uint64 // /proc/stat jiffies
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readProbe() probe {
	p := probe{at: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if data, err := os.ReadFile("/proc/self/io"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			k, v, _ := strings.Cut(line, ":")
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			switch k {
			case "wchar":
				p.wchar = n
			case "syscw":
				p.syscw = n
			}
		}
	}
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	value := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	p.allocBytes, p.alloc = uint64(value(0)), uint64(value(1))
	p.gcCPU, p.totalCPU = value(2), value(3)
	p.steal, p.hostTotal = hostCPU()
	return p
}

// hostCPU reads the aggregate steal and total jiffies from /proc/stat.
func hostCPU() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is already
	// inside user.
	for i, f := range fields[1:9] {
		n, _ := strconv.ParseUint(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// currentRSS returns the resident set in MiB from /proc/self/statm.
func currentRSS() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := bytes.Fields(data)
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(string(fields[1]), 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// phaseDelta is what happened between two probes.
type phaseDelta struct {
	wall                    time.Duration
	cpu                     time.Duration
	wchar, syscw            int64
	allocBytes, allocs      float64
	gcShare, cpuUtil, steal float64
}

func delta(a, b probe) phaseDelta {
	d := phaseDelta{
		wall:       b.at.Sub(a.at),
		cpu:        b.cpu - a.cpu,
		wchar:      b.wchar - a.wchar,
		syscw:      b.syscw - a.syscw,
		allocBytes: float64(b.allocBytes - a.allocBytes),
		allocs:     float64(b.alloc - a.alloc),
		gcShare:    ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
		steal:      ratio(float64(b.steal-a.steal), float64(b.hostTotal-a.hostTotal)),
	}
	d.cpuUtil = ratio(d.cpu.Seconds(), d.wall.Seconds()*float64(runtime.NumCPU()))
	return d
}

// calibSink keeps the calibration's results observable to the compiler.
var calibSink byte

// hostCalibration times reps rounds of a fixed workload built only from
// the standard library — hashing, sorting and a JSON round trip — and
// returns each round in microseconds. It shares no code with mcopt, so a
// change in it between runs is a change in the host. Hosts here have been
// seen to run 2x slower for tens of minutes without reporting any CPU
// steal; this probe is what tells such a host apart from a slower program.
func hostCalibration(reps int) []float64 {
	r := rand.New(rand.NewPCG(1, 2))
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(r.Uint32())
	}
	ints := make([]int, 16<<10)
	type record struct {
		A int       `json:"a"`
		B []float64 `json:"b"`
		C string    `json:"c"`
	}
	x := record{A: 1, B: make([]float64, 64), C: "calibration"}
	var out []float64
	for range reps {
		start := time.Now()
		for range 4 {
			calibSink ^= sha256.Sum256(buf)[0]
		}
		for i := range ints {
			ints[i] = r.Int()
		}
		sort.Ints(ints)
		for range 100 {
			data, _ := json.Marshal(x) // a fixed struct always marshals
			var y record
			_ = json.Unmarshal(data, &y) // and its own encoding always decodes
			calibSink ^= byte(y.A)
		}
		out = append(out, us(time.Since(start)))
	}
	return out
}
