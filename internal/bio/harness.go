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

// RunDetTrace executes the tool inside DetTrace on n workers — `-np n`
// processes, or `-nt n` sibling threads of the pthreads build — with the
// mechanisms in off switched off (core.Off(core.Workspaces) serializes the
// threads).
func RunDetTrace(tool Tool, workers string, n int, hostSeed uint64, epoch int64, off core.Mechanisms) *core.Result {
	c := core.New(core.Config{
		Image:    image(tool),
		Profile:  machine.BioHaswell(),
		HostSeed: hostSeed,
		Epoch:    epoch,
		NumCPU:   16,
		PRNGSeed: 0xb10,
		Off:      off,
	})
	argv := []string{string(tool), workers, fmt.Sprint(n)}
	return c.Run(registry(tool), "/bin/"+string(tool), argv, []string{"PATH=/bin"})
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
			on := RunDetTrace(tool, "-nt", nt, seed+uint64(nt), 1_542_000_000, 0)
			off := RunDetTrace(tool, "-nt", nt, seed+uint64(nt), 1_542_000_000, core.Off(core.Workspaces))
			if on.Err != nil || off.Err != nil {
				panic(fmt.Sprintf("bio threaded runs failed: ws on %v, ws off %v", on.Err, off.Err))
			}
			if eq, diff := hashdeep.Equal(hashdeep.HashSubtree(on.FS, "/"), hashdeep.HashSubtree(off.FS, "/")); !eq {
				panic(fmt.Sprintf("bio %s -nt %d: workspace ablation changed the output tree: %s", tool, nt, diff))
			}
			cells = append(cells, ThreadCell{
				Tool: tool, Threads: nt, WsOn: on.WallTime, WsOff: off.WallTime,
				Speedup:   float64(off.WallTime) / float64(on.WallTime),
				Forks:     on.Stats.WsForks,
				Merges:    on.Stats.WsMerges,
				Conflicts: on.Stats.WsConflicts,
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
			res := RunDetTrace(tool, "-np", np, seed+uint64(np)^0xD7, 1_541_000_000, 0)
			if res.Err != nil {
				panic(fmt.Sprintf("bio DetTrace run failed: %v", res.Err))
			}
			cells = append(cells, Fig6Cell{tool, np, false, res.WallTime, float64(seqWall) / float64(res.WallTime)})
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
		d1 := RunDetTrace(tool, "-np", 4, seed+3, 1_540_000_000, 0)
		d2 := RunDetTrace(tool, "-np", 4, seed+4, 1_540_011_111, 0)
		if d1.Err != nil || d2.Err != nil {
			panic(fmt.Sprintf("bio DetTrace verify failed: %v / %v", d1.Err, d2.Err))
		}
		dEq, _ := hashdeep.Equal(
			hashdeep.HashSubtree(d1.FS, "/data/out"),
			hashdeep.HashSubtree(d2.FS, "/data/out"))
		out = append(out, ReproResult{tool, nEq, dEq})
	}
	return out
}
