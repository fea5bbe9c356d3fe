package bio

import (
	"fmt"
	"strings"

	"repro/internal/baseimg"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/hashdeep"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/stats"
)

// image builds the chroot for one bio run.
func image(tool Tool) *fs.Image {
	im := baseimg.Minimal()
	im.AddDir("/data", 0o755)
	var fasta strings.Builder
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&fasta, ">seq%03d\nACGTACGTACGTAGCTAGCTAGCATCGATCGATCGTAGCTAGCTAACGT\n", i)
	}
	im.AddFile("/data/input.fasta", 0o644, []byte(fasta.String()))
	im.AddFile("/bin/"+string(tool), 0o755, guest.MakeExe(string(tool), nil))
	return im
}

func registry(tool Tool) *guest.Registry {
	reg := guest.NewRegistry()
	reg.Register(string(tool), Main(tool))
	return reg
}

// RunNative executes the tool natively with the given worker count and
// returns wall time plus the output tree.
func RunNative(tool Tool, procs int, seed uint64, epoch int64) (int64, *fs.Image) {
	reg := registry(tool)
	k := kernel.Prepare(kernel.Config{
		Profile:  machine.BioHaswell(),
		Image:    image(tool),
		Resolver: reg.Resolver(),
	}).Boot(kernel.BootConfig{
		Seed:   seed,
		Epoch:  epoch,
		NumCPU: 16, // the paper runs up to 16 parallel processes
	})
	argv := []string{string(tool), "-np", fmt.Sprint(procs)}
	guest.Start(k, "/bin/"+string(tool), argv, []string{"PATH=/bin"}, "")
	if err := k.Run(); err != nil {
		panic(fmt.Sprintf("bio native run failed: %v", err))
	}
	return k.Now(), k.FS.SnapshotImage(k.FS.Root)
}

// RunDetTrace executes the tool inside DetTrace.
func RunDetTrace(tool Tool, procs int, hostSeed uint64, epoch int64) (int64, *fs.Image, error) {
	c := core.New(core.Config{
		Image:    image(tool),
		Profile:  machine.BioHaswell(),
		HostSeed: hostSeed,
		Epoch:    epoch,
		NumCPU:   16,
		PRNGSeed: 0xb10,
	})
	argv := []string{string(tool), "-np", fmt.Sprint(procs)}
	res := c.Run(registry(tool), "/bin/"+string(tool), argv, []string{"PATH=/bin"})
	return res.WallTime, res.FS, res.Err
}

// RunDetTraceThreaded executes the pthreads build of the tool inside
// DetTrace with the given sibling-thread count, optionally disabling
// workspace mode (the serialized-thread ablation).
func RunDetTraceThreaded(tool Tool, threads int, hostSeed uint64, epoch int64, disableWs bool) (*core.Result, error) {
	c := core.New(core.Config{
		Image:             image(tool),
		Profile:           machine.BioHaswell(),
		HostSeed:          hostSeed,
		Epoch:             epoch,
		NumCPU:            16,
		PRNGSeed:          0xb10,
		DisableWorkspaces: disableWs,
	})
	argv := []string{string(tool), "-nt", fmt.Sprint(threads)}
	res := c.Run(registry(tool), "/bin/"+string(tool), argv, []string{"PATH=/bin"})
	return res, res.Err
}

// ThreadCell is one row of the workspace thread study (X17): the pthreads
// build under DetTrace with workspaces on vs the serialized ablation.
type ThreadCell struct {
	Tool    Tool
	Threads int
	WsOn    int64
	WsOff   int64
	Speedup float64 // WsOff / WsOn

	// Workspace accounting of the ws-on run.
	Forks     int64
	Merges    int64
	Conflicts int64
}

// RunThreadStudy measures all three tools across the Fig. 6 axis with the
// workspace ablation. It panics if the two modes' output trees differ:
// workspaces must be invisible to everything but the physical clock.
func RunThreadStudy(seed uint64) []ThreadCell {
	var cells []ThreadCell
	for _, tool := range Tools {
		for _, nt := range Fig6Procs {
			on, err := RunDetTraceThreaded(tool, nt, seed+uint64(nt), 1_542_000_000, false)
			if err != nil {
				panic(fmt.Sprintf("bio ws-on threaded run failed: %v", err))
			}
			off, err := RunDetTraceThreaded(tool, nt, seed+uint64(nt), 1_542_000_000, true)
			if err != nil {
				panic(fmt.Sprintf("bio ws-off threaded run failed: %v", err))
			}
			if eq, diff := hashdeep.Equal(hashdeep.HashSubtree(on.FS, "/"), hashdeep.HashSubtree(off.FS, "/")); !eq {
				panic(fmt.Sprintf("bio %s -nt %d: workspace ablation changed the output tree: %s", tool, nt, diff))
			}
			cells = append(cells, ThreadCell{
				Tool: tool, Threads: nt, WsOn: on.WallTime, WsOff: off.WallTime,
				Speedup:   float64(off.WallTime) / float64(on.WallTime),
				Forks:     on.Obs.Counter("workspace_forks").Value(),
				Merges:    on.Obs.Counter("workspace_merges").Value(),
				Conflicts: on.Obs.Counter("workspace_conflicts").Value(),
			})
		}
	}
	return cells
}

// FormatThreadStudy renders the study as a speedup table.
func FormatThreadStudy(cells []ThreadCell) string {
	t := stats.NewTable("workflow", "threads", "ws on", "ws off", "speedup")
	for _, c := range cells {
		t.Row(string(c.Tool), fmt.Sprint(c.Threads),
			fmt.Sprintf("%.1fs", float64(c.WsOn)/1e9),
			fmt.Sprintf("%.1fs", float64(c.WsOff)/1e9),
			fmt.Sprintf("%.2fx", c.Speedup))
	}
	return t.String()
}

// Fig6Cell is one bar of Figure 6.
type Fig6Cell struct {
	Tool    Tool
	Procs   int
	Native  bool
	Wall    int64
	Speedup float64 // vs sequential native
}

// Fig6Procs are the worker counts on the figure's x axis.
var Fig6Procs = []int{1, 4, 16}

// RunFig6 produces every bar of Figure 6.
func RunFig6(seed uint64) []Fig6Cell {
	var cells []Fig6Cell
	for _, tool := range Tools {
		seqWall, _ := RunNative(tool, 1, seed, 1_540_000_000)
		for _, np := range Fig6Procs {
			nw, _ := RunNative(tool, np, seed+uint64(np), 1_540_000_000)
			cells = append(cells, Fig6Cell{tool, np, true, nw, float64(seqWall) / float64(nw)})
		}
		for _, np := range Fig6Procs {
			dw, _, err := RunDetTrace(tool, np, seed+uint64(np)^0xD7, 1_541_000_000)
			if err != nil {
				panic(fmt.Sprintf("bio DetTrace run failed: %v", err))
			}
			cells = append(cells, Fig6Cell{tool, np, false, dw, float64(seqWall) / float64(dw)})
		}
	}
	return cells
}

// FormatFig6 renders the cells like the figure's bar labels.
func FormatFig6(cells []Fig6Cell) string {
	t := stats.NewTable("workflow", "config", "1 proc", "4 procs", "16 procs")
	for _, tool := range Tools {
		for _, native := range []bool{true, false} {
			vals := map[int]float64{}
			for _, c := range cells {
				if c.Tool == tool && c.Native == native {
					vals[c.Procs] = c.Speedup
				}
			}
			cfg := "native"
			if !native {
				cfg = "dettrace"
			}
			t.Row(string(tool), cfg,
				fmt.Sprintf("%.2f", vals[1]),
				fmt.Sprintf("%.2f", vals[4]),
				fmt.Sprintf("%.2f", vals[16]))
		}
	}
	return t.String()
}

// ReproResult is the §6.1 hashdeep verdict for one tool.
type ReproResult struct {
	Tool              Tool
	NativeIdentical   bool // two native runs produce identical /data/out
	DetTraceIdentical bool
}

// VerifyRepro reruns each workflow twice natively (different host accidents)
// and twice under DetTrace, hashing the outputs like §6.1 does with
// hashdeep.
func VerifyRepro(seed uint64) []ReproResult {
	var out []ReproResult
	for _, tool := range Tools {
		_, n1 := RunNative(tool, 4, seed+1, 1_540_000_000)
		_, n2 := RunNative(tool, 4, seed+2, 1_540_011_111)
		nEq, _ := hashdeep.Equal(
			hashdeep.HashSubtree(n1, "/data/out"),
			hashdeep.HashSubtree(n2, "/data/out"))
		_, d1, err1 := RunDetTrace(tool, 4, seed+3, 1_540_000_000)
		_, d2, err2 := RunDetTrace(tool, 4, seed+4, 1_540_011_111)
		if err1 != nil || err2 != nil {
			panic(fmt.Sprintf("bio DetTrace verify failed: %v / %v", err1, err2))
		}
		dEq, _ := hashdeep.Equal(
			hashdeep.HashSubtree(d1, "/data/out"),
			hashdeep.HashSubtree(d2, "/data/out"))
		out = append(out, ReproResult{tool, nEq, dEq})
	}
	return out
}
