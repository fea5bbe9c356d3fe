package main

import (
	"math"
	"sort"

	"repro/internal/debpkg"
)

// Seeded input generation shared by the workloads.
//
// Every workload draws its packages from debpkg.Universe(seed, poolSize), so
// names, versions, sources, directives and contents all follow the seed. A
// plain prefix of that universe is a poor benchmark input, though: one
// busy-wait package costs ~17x a median one and a timeout-prone one ~2x, so
// the class mix of a 40-package prefix moves host time by 3x and the
// aggregate slowdown by 40% from seed to seed — far more than any change the
// benchmark is meant to detect. The sampler below keeps the seed's packages
// but fixes the *shape* of the sample: a fixed quota per stratum (class x
// compiler x unsupported kind, in the universe's proportions), and inside a
// stratum the candidates closest to a fixed set of (size, syscall-rate)
// targets. Two seeds then build different packages of the same sizes.
// Measured over eight seeds, the sample's total allocation count moves by
// under 1% and its aggregate slowdown by under 2%.

const poolSize = 3000

// refSeed generates the reference universe the targets are read from. It is
// a constant of the benchmark, not an input: targets must not move with the
// workload seed.
const refSeed = 0x5eed

type stratum struct {
	name  string
	share float64 // quota at scale 1
	match func(*debpkg.Spec) bool
}

// sizeKey predicts a package's host cost: the toolchain's syscall count,
// ~24 calls per unit plus 11/3 per header probe (debpkg.computeForRate's
// model), plus the piped test suite. Measured correlation with host time per
// package is 0.92 on cc packages. A busy-wait javac package instead spins
// once per 200 virtual ns for as long as its four worker threads compile:
// the longest worker's share of the units times a unit's source bytes.
func sizeKey(s *debpkg.Spec) float64 {
	if s.Threads == "busywait" {
		return float64((s.Units+3)/4) * unitBytes(s)
	}
	return float64((24+s.Headers*11/3)*s.Units + 300 + s.Tests[0])
}

// unitBytes estimates the size of one compile unit as debpkg materializes
// it: a comment line, one 18-byte #include per header probe, then code lines
// filling up to UnitKB — so a header-heavy 1 KB unit is really ~2 KB.
func unitBytes(s *debpkg.Spec) float64 {
	return math.Max(float64(s.UnitKB*1024), float64(25+18*s.Headers)) + 22
}

// rateKeys predict the virtual time per syscall — the inverse of the Fig. 5
// x-axis — of the baseline build and of the DetTrace build, which together
// with the syscall count fix both sums the aggregate slowdown divides.
// Compute time comes from the real source bytes. The baseline divides it by
// the parallelism the package's Makefile opts into; DetTrace serializes the
// container, so its build pays the whole of it.
func rateKeys(s *debpkg.Spec) (baseline, serial float64) {
	compute := float64(s.Units) * unitBytes(s) * 400 * float64(s.ComputeFct)
	calls := float64((24+s.Headers*11/3)*s.Units + 300 + s.Tests[0])
	parallel := 1.0
	switch {
	case s.Compiler == "javac": // up to four compiler threads share the units
		parallel = math.Min(4, float64(s.Units))
	case s.LogArtifact: // make -j: every unit compiles at once on 16+ cores
		parallel = float64(s.Units)
	}
	return compute/parallel/calls + 2000, compute/calls + 2000
}

// keyed is a candidate with its matching keys, in log space.
type keyed struct {
	spec               *debpkg.Spec
	size, rate, serial float64
}

func keyAll(specs []*debpkg.Spec) []keyed {
	out := make([]keyed, len(specs))
	for i, s := range specs {
		rate, serial := rateKeys(s)
		out[i] = keyed{s, math.Log(sizeKey(s)), math.Log(rate), math.Log(serial)}
	}
	return out
}

// pickMatched returns quota specs from cands: the targets are the
// (size, rate) points of the reference candidates at evenly spaced ranks
// (sorted by size in sqrt(quota) groups, by rate inside a group), and each
// target takes the nearest unused candidate in log space.
func pickMatched(refSpecs, candSpecs []*debpkg.Spec, quota int) []*debpkg.Spec {
	if quota <= 0 || len(refSpecs) == 0 || len(candSpecs) == 0 {
		return nil
	}
	ref, cands := keyAll(refSpecs), keyAll(candSpecs)
	sort.SliceStable(ref, func(i, j int) bool { return ref[i].size < ref[j].size })
	groups := int(math.Sqrt(float64(quota)))
	if groups < 1 {
		groups = 1
	}
	var targets []keyed
	for g := 0; g < groups; g++ {
		grp := append([]keyed(nil), ref[g*len(ref)/groups:(g+1)*len(ref)/groups]...)
		sort.SliceStable(grp, func(i, j int) bool { return grp[i].rate < grp[j].rate })
		n := (g+1)*quota/groups - g*quota/groups
		for k := 0; k < n && len(grp) > 0; k++ {
			targets = append(targets, grp[(2*k+1)*len(grp)/(2*n)])
		}
	}
	used := make([]bool, len(cands))
	var out []*debpkg.Spec
	for _, tg := range targets {
		best, bestD := -1, math.Inf(1)
		for i, c := range cands {
			if used[i] {
				continue
			}
			ds, dr, dq := c.size-tg.size, c.rate-tg.rate, c.serial-tg.serial
			if d := ds*ds + dr*dr + dq*dq; d < bestD {
				best, bestD = i, d
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		out = append(out, cands[best].spec)
	}
	return out
}

// stratified draws the seed's sample: per stratum, quota = share*scale
// rounded (a stratum of three or more keeps at least one package at any
// scale, so shrunken test runs still cover the main classes without paying
// for a busy-wait build), matched to the reference targets.
//
// The order is part of the shape too. A closed loop of C clients takes
// packages in input order, so where the two 0.7 s busy-wait builds fall among
// forty 40 ms ones decides how long the last client runs alone: sorted by
// name, that tail moved ops_per_s by a third between seeds with identical
// work. The strata are therefore interleaved at fixed positions — the k'th
// of a stratum's q packages sits at (k+1/2)/q of the way through — so every
// seed presents the same sequence of sizes.
func stratified(seed uint64, scale float64, strata []stratum) []*debpkg.Spec {
	pool := debpkg.Universe(seed, poolSize)
	ref := debpkg.Universe(refSeed, poolSize)
	type placed struct {
		spec *debpkg.Spec
		at   float64
	}
	var out []placed
	for _, st := range strata {
		quota := int(math.Round(st.share * scale))
		if quota < 1 && st.share >= 3 {
			quota = 1
		}
		filter := func(in []*debpkg.Spec) []*debpkg.Spec {
			var c []*debpkg.Spec
			for _, s := range in {
				if st.match(s) {
					c = append(c, s)
				}
			}
			return c
		}
		picked := pickMatched(filter(ref), filter(pool), quota)
		for k, s := range picked {
			out = append(out, placed{s, (float64(k) + 0.5) / float64(len(picked))})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	specs := make([]*debpkg.Spec, len(out))
	for i, p := range out {
		specs[i] = p.spec
	}
	return specs
}

func classIs(cs ...debpkg.Class) func(*debpkg.Spec) bool {
	return func(s *debpkg.Spec) bool {
		for _, c := range cs {
			if s.Class == c {
				return true
			}
		}
		return false
	}
}

func both(a, b func(*debpkg.Spec) bool) func(*debpkg.Spec) bool {
	return func(s *debpkg.Spec) bool { return a(s) && b(s) }
}

func compilerIs(c string) func(*debpkg.Spec) bool {
	return func(s *debpkg.Spec) bool { return s.Compiler == c }
}

func unsupIs(k debpkg.UnsupportedKind) func(*debpkg.Spec) bool {
	return func(s *debpkg.Spec) bool { return s.Unsup == k }
}

// universeStrata is the Table-1 population in the universe's proportions,
// per 40 packages: 7.8% baseline failures, 51% + 20% DetTrace-reproducible
// (a seventh of them threaded javac), 9% DetTrace timeouts, 12% unsupported
// split by §7.1.1 kind. The 0.2% baseline-timeout class rounds to nothing.
var universeStrata = []stratum{
	{"bl-fail", 3, classIs(debpkg.BLFail)},
	{"irrepro-cc", 16, both(classIs(debpkg.BLIrrepro_DTRepro), compilerIs("cc"))},
	{"irrepro-javac", 3, both(classIs(debpkg.BLIrrepro_DTRepro), compilerIs("javac"))},
	{"repro-cc", 7, both(classIs(debpkg.BLRepro_DTRepro), compilerIs("cc"))},
	{"repro-javac", 1, both(classIs(debpkg.BLRepro_DTRepro), compilerIs("javac"))},
	{"dt-timeout", 4, classIs(debpkg.BLIrrepro_DTTimeout, debpkg.BLRepro_DTTimeout)},
	{"busy-wait", 2, unsupIs(debpkg.UnsupBusyWait)},
	{"socket", 1, unsupIs(debpkg.UnsupSocket)},
	{"signal", 1, unsupIs(debpkg.UnsupSignal)},
	{"misc-syscall", 2, unsupIs(debpkg.UnsupMisc)},
}

// buildableStrata are the packages DetTrace builds to completion — what the
// checkpoint, resume and seek paths can be driven over.
var buildableStrata = []stratum{
	{"irrepro-cc", 7, both(classIs(debpkg.BLIrrepro_DTRepro), compilerIs("cc"))},
	{"repro-cc", 3, both(classIs(debpkg.BLRepro_DTRepro), compilerIs("cc"))},
}

// anySpec matches the whole universe: boot-churn only unpacks and boots
// images, so every class is fair game and only source-tree size matters.
func anySpec(*debpkg.Spec) bool { return true }
