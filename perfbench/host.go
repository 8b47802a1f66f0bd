package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host describes the machine a run was taken on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func thisHost() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		Go:         runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

const hostPrefix = "host: "

func printHost() {
	b, _ := json.Marshal(thisHost())
	fmt.Println(hostPrefix + string(b))
}

// compare reads two saved outputs of perfbench and prints each metric's
// change. It refuses runs taken on different core counts, whose numbers
// are not comparable.
func compare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare OLD NEW")
	}
	var hs [2]host
	var rs [2]result
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var hostLine, last string
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			if strings.HasPrefix(line, hostPrefix) {
				hostLine = strings.TrimPrefix(line, hostPrefix)
			}
			last = line
		}
		if hostLine == "" {
			return fmt.Errorf("%s: no %q line", path, strings.TrimSpace(hostPrefix))
		}
		if err := json.Unmarshal([]byte(hostLine), &hs[i]); err != nil {
			return fmt.Errorf("%s: host line: %w", path, err)
		}
		if err := json.Unmarshal([]byte(last), &rs[i]); err != nil {
			return fmt.Errorf("%s: result line: %w", path, err)
		}
	}
	if err := comparable(hs[0], hs[1]); err != nil {
		return err
	}
	names := make([]string, 0, len(rs[1].Metrics))
	for n := range rs[1].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		old, ok := rs[0].Metrics[n]
		if !ok {
			continue
		}
		nv := rs[1].Metrics[n].Value
		fmt.Printf("%-34s %14.6f -> %14.6f %-6s %+7.1f%%\n", n, old.Value, nv, old.Unit, 100*ratio(nv-old.Value, old.Value))
	}
	return nil
}

// comparable refuses a pair of hosts whose core counts differ.
func comparable(a, b host) error {
	if a.NProc != b.NProc || a.GOMAXPROCS != b.GOMAXPROCS {
		return fmt.Errorf("runs taken on different core counts (nproc %d/%d, GOMAXPROCS %d/%d) are not comparable",
			a.NProc, b.NProc, a.GOMAXPROCS, b.GOMAXPROCS)
	}
	return nil
}

// cpuTicks returns the host's cumulative steal and total CPU ticks from
// /proc/stat (zeros where it is unavailable). Steal is time the
// hypervisor gave the host's CPUs to other guests; a run with much of it
// is slower for reasons outside the program.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuSeconds is the CPU time this process has used, user plus system.
// Time the hypervisor steals is not charged to it.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// refTaskS is the CPU seconds refTask takes on the recording host
// (README.md, "Steadiness"); setup_s is set-up time at that speed.
const refTaskS = 0.16

// refTaskN is the number of records refTask builds.
const refTaskN = 150000

// refTaskSink keeps refTask's result live.
var refTaskSink int

// refTask runs a fixed task that uses no code of the system under test,
// on the caller's GOMAXPROCS, and returns its CPU seconds. It does the
// kind of work a set-up does: it formats statement text, allocates
// records linked by pointers, indexes them in a map and sorts the keys,
// and the garbage collector runs while it does. On a shared VM the same
// work runs up to 60% slower for minutes at a time, with or without steal;
// set-up time per second of refTask moves far less (README.md).
func refTask() float64 {
	type record struct {
		key  string
		vals []int64
		next *record
	}
	runtime.GC()
	cpu := cpuSeconds()
	r := rand.New(rand.NewSource(1))
	index := make(map[string]*record)
	keys := make([]string, 0, refTaskN)
	var prev *record
	var buf []byte
	for i := 0; i < refTaskN; i++ {
		buf = append(buf[:0], "INSERT INTO orders VALUES ("...)
		buf = strconv.AppendInt(buf, r.Int63n(1e9), 10)
		buf = append(buf, ", "...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ')')
		k := string(buf)
		rec := &record{key: k, vals: []int64{int64(i), r.Int63(), int64(len(k))}, next: prev}
		index[k] = rec
		keys = append(keys, k)
		prev = rec
	}
	sort.Strings(keys)
	refTaskSink = len(index) + len(keys[0])
	return cpuSeconds() - cpu
}
