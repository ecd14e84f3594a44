package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"sync"

	"partitionshare/internal/mrc"
	"partitionshare/internal/profileio"
	"partitionshare/internal/workload"
)

// Geometry the daemon serves at its defaults and the paper evaluates
// at (§VII): C=1024 units of 4 blocks.
const (
	units         = 1024
	blocksPerUnit = 4
)

// suiteProfile is one of the 16 suite programs as a tenant uploads it.
type suiteProfile struct {
	name  string
	body  []byte // hotlprof output, the PUT body
	curve mrc.Curve
}

// suiteNames lists the 16 programs of the paper's suite.
func suiteNames() []string {
	var names []string
	for _, s := range workload.Specs() {
		names = append(names, s.Name)
	}
	return names
}

// loadSuite returns the 16 full-geometry profiles, produced by the
// hotlprof binary and cached per hotlprof build (the profiles depend on
// the program, never on the benchmark seed). At most nproc hotlprof
// processes run at once.
func loadSuite(c *config) ([]suiteProfile, error) {
	sum, err := fileDigest(filepath.Join(c.bin, "hotlprof"))
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(c.cache, "profiles-"+sum[:16])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names := suiteNames()
	errs := make([]error, len(names))
	sem := make(chan struct{}, c.nproc)
	var wg sync.WaitGroup
	for i, n := range names {
		path := filepath.Join(dir, n+".hotl")
		if _, err := os.Stat(path); err == nil {
			continue
		}
		wg.Add(1)
		go func(i int, n, path string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			tmp := path + ".tmp"
			cmd := exec.Command(filepath.Join(c.bin, "hotlprof"), "-workload", n, "-workers", "1", "-out", tmp)
			if out, err := cmd.CombinedOutput(); err != nil {
				errs[i] = fmt.Errorf("hotlprof %s: %v\n%s", n, err, out)
				return
			}
			errs[i] = os.Rename(tmp, path)
		}(i, n, path)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	suite := make([]suiteProfile, len(names))
	for i, n := range names {
		body, err := os.ReadFile(filepath.Join(dir, n+".hotl"))
		if err != nil {
			return nil, err
		}
		p, err := profileio.ReadFile(filepath.Join(dir, n+".hotl"))
		if err != nil {
			return nil, err
		}
		suite[i] = suiteProfile{name: n, body: body, curve: tenantCurve(n, p)}
	}
	return suite, nil
}

// tenantCurve derives the miss-ratio curve a served plan is solved on,
// the way cmd/optpart derives it offline: the profile's footprint at
// the served geometry, with the program weighted by its access rate.
// The oracles solve on these curves, derived here rather than read back
// from the daemon.
func tenantCurve(name string, p profileio.Profile) mrc.Curve {
	c := mrc.FromFootprint(name, p.Footprint(), units, blocksPerUnit, p.Rate)
	c.Accesses = int64(float64(c.Accesses) * p.Rate)
	return c
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// rng returns the workload's generator for one purpose; distinct
// purposes draw independent streams from the same seed.
func rng(seed uint64, purpose uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x5eed0000+purpose))
}

// pickGroup draws k distinct programs in draw order.
func pickGroup(r *rand.Rand, n, k int) []int {
	return r.Perm(n)[:k]
}
