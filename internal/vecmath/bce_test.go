package vecmath

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestKernelsBoundsCheckFree recompiles this package with the compiler's
// bounds-check-elimination diagnostic (-d=ssa/check_bce) and diffs the
// findings against testdata/bce_allowlist.txt. The kernels' speed rests on
// the prove pass eliminating every per-element bounds check from the
// unrolled loops; an innocent-looking refactor (splitting a loop, hoisting
// an index, changing a guard) can silently bring the checks back with no
// test failing, so this guard turns that perf regression into a red test.
//
// The compiler caches and replays its diagnostics, so a cache hit still
// yields the findings; the test needs no cache-busting.
func TestKernelsBoundsCheckFree(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles the package; skipped in -short")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not on PATH: %v", err)
	}
	cmd := exec.Command(gobin, "build", "-gcflags=-d=ssa/check_bce", ".")
	cmd.Dir = "." // tests run in the package directory
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -d=ssa/check_bce: %v\n%s", err, out)
	}
	got := parseBCEFindings(string(out))
	want, err := loadBCEAllowlist(filepath.Join("testdata", "bce_allowlist.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("bounds-check findings changed:\n  got:  %v\n  want: %v\n"+
			"A new finding means a kernel loop regained a per-element bounds check "+
			"(see the package comment for the loop shapes prove can verify). "+
			"Only allowlist a finding that is demonstrably off the hot path.", got, want)
	}
}

// serialKernels are the functions whose float results the SGD golden test
// pins bitwise: they must perform every product and sum as written, with no
// fused multiply-add. See the package comment in kernels.go.
var serialKernels = []string{
	"dotSerial", "DotSigmoid", "DotBiasSigmoid", "Axpy", "AxpyTwo",
	"DotRows", "dot6Serial", "AxpyRows", "axpy6Rows",
}

// fusedOps are the arm64 fused multiply-add instructions gc emits for
// x*y ± z when nothing rounds the product in between.
var fusedOps = map[string]bool{
	"FMADDS": true, "FMSUBS": true, "FNMADDS": true, "FNMSUBS": true,
	"FMADDD": true, "FMSUBD": true, "FNMADDD": true, "FNMSUBD": true,
}

// TestSerialKernelsFMAFree cross-compiles this package for arm64, where gc
// contracts x*y + z into FMADDS, and fails on any fused instruction in a
// serial kernel. A fused op rounds once where the scalar loop rounds twice,
// so it would silently move the trained model's bits on arm64. The kernels
// prevent it by writing each product as float32(x*y). Like the bounds-check
// guard, the assembly listing is replayed from the build cache on a hit.
func TestSerialKernelsFMAFree(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the package; skipped in -short")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not on PATH: %v", err)
	}
	cmd := exec.Command(gobin, "build", "-gcflags=-S", ".")
	cmd.Dir = "."
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("GOARCH=arm64 go build -gcflags=-S: %v\n%s", err, out)
	}
	fused, listed := fusedOpsByFunc(string(out))
	for _, fn := range serialKernels {
		if !listed[fn] {
			t.Errorf("serial kernel %s is missing from the arm64 listing (renamed? update serialKernels)", fn)
		}
		if ops := fused[fn]; len(ops) > 0 {
			t.Errorf("serial kernel %s contains fused ops on arm64: %v\n"+
				"Write each product as float32(x*y) so its rounding is kept.", fn, ops)
		}
	}
}

// fusedMnemonics are the prefixes of the x86 fused multiply-add families.
var fusedMnemonics = []string{"VFMADD", "VFMSUB", "VFNMADD", "VFNMSUB"}

// TestAssemblyKernelsFMAFree fails on any x86 fused multiply-add in this
// package's assembly. The assembly sweep must round every product and sum
// on its own, as the Go kernel it stands in for does; a fused op would move
// the trained model's bits on amd64.
func TestAssemblyKernelsFMAFree(t *testing.T) {
	files, err := filepath.Glob("*.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no assembly files found (%v)", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			for _, field := range strings.Fields(code) {
				for _, m := range fusedMnemonics {
					if strings.HasPrefix(field, m) {
						t.Errorf("%s:%d: fused instruction %s", file, i+1, field)
					}
				}
			}
		}
	}
}

// TestAssemblyKernelsVEXOnly fails on any legacy-SSE instruction in this
// package's assembly (an instruction naming an X or Y register whose
// mnemonic does not start with V), and on a RET that does not follow a
// VZEROUPPER in a function that uses a Y register. Each switch between
// legacy SSE and 256-bit code costs a state transition: a prototype update
// sweep with a legacy-SSE tail ran slower than the Go loop.
func TestAssemblyKernelsVEXOnly(t *testing.T) {
	files, err := filepath.Glob("*.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no assembly files found (%v)", err)
	}
	vecReg, ymm := regexp.MustCompile(`\b[XY][0-9]+\b`), regexp.MustCompile(`\bY[0-9]+\b`)
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		fn, usesY, prev := "", false, ""
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			if strings.HasPrefix(strings.TrimSpace(code), "#") {
				continue // #include, or a #define's name and parameters
			}
			for _, ins := range strings.Split(strings.TrimSuffix(strings.TrimSpace(code), "\\"), ";") {
				f := strings.Fields(ins)
				if len(f) == 0 || strings.HasSuffix(f[0], ":") {
					continue
				}
				switch {
				case f[0] == "TEXT":
					fn, usesY = f[1], false
				case f[0] == "RET" && usesY && prev != "VZEROUPPER":
					t.Errorf("%s:%d: %s returns without VZEROUPPER", file, i+1, fn)
				case vecReg.MatchString(ins) && !strings.HasPrefix(f[0], "V") && !strings.Contains(f[0], "("):
					t.Errorf("%s:%d: legacy-SSE instruction %s", file, i+1, f[0])
				}
				usesY = usesY || ymm.MatchString(ins)
				prev = f[0]
			}
		}
	}
}

// fusedOpsByFunc scans a -gcflags=-S listing and returns, per function name
// (package path stripped), the fused instructions it contains, plus the set
// of functions listed.
func fusedOpsByFunc(listing string) (fused map[string][]string, listed map[string]bool) {
	fused, listed = map[string][]string{}, map[string]bool{}
	fn := ""
	for _, line := range strings.Split(listing, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[1] == "STEXT" {
			fn = fields[0][strings.LastIndex(fields[0], ".")+1:]
			listed[fn] = true
			continue
		}
		for _, f := range fields {
			if fusedOps[f] {
				fused[fn] = append(fused[fn], f)
			}
		}
	}
	return fused, listed
}

// parseBCEFindings extracts "<file>: Found <check>" lines from the build
// output, dropping line/column so unrelated edits don't shift the baseline.
func parseBCEFindings(out string) []string {
	var findings []string
	for _, line := range strings.Split(out, "\n") {
		i := strings.Index(line, "Found Is")
		if i < 0 {
			continue
		}
		file := line
		if j := strings.Index(line, ":"); j >= 0 {
			file = line[:j]
		}
		file = strings.TrimPrefix(file, "./")
		findings = append(findings, file+": "+strings.TrimSpace(line[i:]))
	}
	sort.Strings(findings)
	return findings
}

func loadBCEAllowlist(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var allowed []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		allowed = append(allowed, line)
	}
	sort.Strings(allowed)
	return allowed, nil
}
