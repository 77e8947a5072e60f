package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"heax/internal/uintmod"
)

// machineRecord is written into every result so two results are only
// compared knowing what they ran on.
type machineRecord struct {
	NProc            int    `json:"nproc"`
	CPUModel         string `json:"cpu_model"`
	IFMA             bool   `json:"ifma"`
	GoVersion        string `json:"go_version"`
	ClientGOMAXPROCS int    `json:"client_gomaxprocs"`
	DaemonGOMAXPROCS int    `json:"daemon_gomaxprocs"`
	Commit           string `json:"commit"`
	Dirty            bool   `json:"dirty"`
	Seed             int64  `json:"seed"`
}

// machine records the host. It refuses a GOMAXPROCS above the CPU count:
// such a run measures oversubscription, not the program.
func machine(seed int64) (machineRecord, error) {
	m := machineRecord{
		NProc:            runtime.NumCPU(),
		CPUModel:         cpuModel(),
		IFMA:             uintmod.HasIFMA(),
		GoVersion:        runtime.Version(),
		ClientGOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:             seed,
	}
	// The daemon inherits this process's GOMAXPROCS through its
	// environment (see startDaemon).
	m.DaemonGOMAXPROCS = m.ClientGOMAXPROCS
	if m.ClientGOMAXPROCS > m.NProc {
		return m, fmt.Errorf("GOMAXPROCS=%d exceeds the %d available CPUs; refusing an oversubscribed run", m.ClientGOMAXPROCS, m.NProc)
	}
	m.Commit, m.Dirty = commit()
	return m, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reports HEAD and whether tracked files differ from it, or
// "unknown" outside a git work tree (an exported checkout).
func commit() (string, bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	return strings.TrimSpace(string(out)), err == nil && len(strings.TrimSpace(string(status))) > 0
}

func (m machineRecord) String() string {
	dirty := ""
	if m.Dirty {
		dirty = "+dirty"
	}
	return fmt.Sprintf("nproc=%d cpu=%q ifma=%v go=%s gomaxprocs(client)=%d gomaxprocs(daemon)=%d commit=%s%s seed=%d",
		m.NProc, m.CPUModel, m.IFMA, m.GoVersion, m.ClientGOMAXPROCS, m.DaemonGOMAXPROCS, m.Commit, dirty, m.Seed)
}
