package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// guarded is one line of the guarded benchmark set: a package, the
// benchmarks to run in it and the -benchtime they run at ("" for the
// testing package's default).
type guarded struct {
	pkg, bench, benchtime string
}

// readSet parses the guarded set: one "package regexp [benchtime]" per
// line, '#' starting a comment.
func readSet(r io.Reader) ([]guarded, error) {
	var set []guarded
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line, _, _ := strings.Cut(sc.Text(), "#")
		f := strings.Fields(line)
		switch len(f) {
		case 0:
		case 2:
			set = append(set, guarded{pkg: f[0], bench: f[1]})
		case 3:
			set = append(set, guarded{pkg: f[0], bench: f[1], benchtime: f[2]})
		default:
			return nil, fmt.Errorf("guarded set: want \"package regexp [benchtime]\", got %q", sc.Text())
		}
	}
	return set, sc.Err()
}

// sample collects count runs of every guarded benchmark from the base
// and the head checkout into baseOut and headOut, interleaved: each
// package's test binary is built once per side, and every round runs
// both sides back to back, the side that goes first alternating. A slow
// spell of the machine therefore lands on both sides of a comparison,
// where sampling one side after the other hands it to whichever ran
// then — which is how an untouched benchmark came to read ×1.22.
//
// A package that does not build at the base (it is new) yields head
// samples only, which compare reports as head-only.
func sample(baseDir, headDir, setPath string, count int, baseOut, headOut io.Writer) error {
	f, err := os.Open(filepath.Join(headDir, setPath))
	if err != nil {
		return err
	}
	set, err := readSet(f)
	f.Close()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "benchgate")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	sides := [2]struct {
		name, dir string
		out       io.Writer
	}{{"base", baseDir, baseOut}, {"head", headDir, headOut}}
	for i, g := range set {
		var bins [2]string
		for s, side := range sides {
			bin := filepath.Join(tmp, fmt.Sprintf("%s-%d.test", side.name, i))
			build := exec.Command("go", "test", "-c", "-o", bin, g.pkg)
			build.Dir = side.dir
			if msg, err := build.CombinedOutput(); err != nil {
				if side.name == "base" {
					fmt.Fprintf(os.Stderr, "benchgate: %s does not build at the base, head only\n", g.pkg)
					continue
				}
				return fmt.Errorf("build %s at the head: %v\n%s", g.pkg, err, msg)
			}
			bins[s] = bin
		}
		for round := 0; round < count; round++ {
			for k := range sides {
				s := (k + round) % 2
				if bins[s] == "" {
					continue
				}
				args := []string{"-test.run=^$", "-test.bench=" + g.bench, "-test.count=1", "-test.timeout=20m"}
				if g.benchtime != "" {
					args = append(args, "-test.benchtime="+g.benchtime)
				}
				run := exec.Command(bins[s], args...)
				run.Dir = filepath.Join(sides[s].dir, g.pkg)
				run.Stdout, run.Stderr = sides[s].out, os.Stderr
				if err := run.Run(); err != nil {
					return fmt.Errorf("%s %s at the %s: %v", g.pkg, g.bench, sides[s].name, err)
				}
			}
			fmt.Fprintf(os.Stderr, "benchgate: %s %s round %d/%d\n", g.pkg, g.bench, round+1, count)
		}
	}
	return nil
}
