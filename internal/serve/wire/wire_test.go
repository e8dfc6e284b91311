package wire

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// floatCases are the values where encoding/json's float format turns:
// zero of both signs, the 'e' cut-offs at 1e-6 and 1e21, the exponent
// clean-up (e-07 → e-7), subnormals and the extremes.
var floatCases = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 123456789, 1e20, 1e21, 1e22, 9.999999999999999e20,
	1e-6, 9.99999e-7, 1e-7, 1.234e-9, 5e-324, math.SmallestNonzeroFloat64, math.MaxFloat64,
	-math.MaxFloat64, 1 << 53, 1<<53 + 2, 0.8766331963093327, 2.2250738585072014e-308,
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := append([]float64(nil), floatCases...)
	for i := 0; i < 200_000; i++ {
		switch i % 3 {
		case 0: // any finite bit pattern
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				vals = append(vals, f)
			}
		case 1: // distances and densities
			vals = append(vals, rng.ExpFloat64()*math.Pow(10, float64(rng.Intn(50)-25)))
		default: // short decimals
			vals = append(vals, float64(rng.Intn(2_000_001)-1_000_000)/math.Pow(10, float64(rng.Intn(12))))
		}
	}
	for _, f := range vals {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := AppendFloat(nil, f)
		if !ok || string(got) != string(want) {
			t.Fatalf("AppendFloat(%v) = %q, %v; encoding/json writes %q", f, got, ok, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := AppendFloat(nil, f); ok {
			t.Fatalf("AppendFloat(%v) succeeded; encoding/json refuses it", f)
		}
	}
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{"", "pts", "ref/with slash", "a<b>&c", "tab\there", "quote\"back\\slash",
		"\x00\x1f\x7f", "é", "日本", "  ", "bad\xffutf8", "plain ~!@#$%^*()_+={}[]|:;',.?"} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Fatalf("AppendString(%q) = %s; encoding/json writes %s", s, got, want)
		}
	}
}

// exactDecimal must return ParseFloat's value whenever it answers.
func TestExactDecimalMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var lits []string
	for _, f := range floatCases {
		b, _ := AppendFloat(nil, f)
		lits = append(lits, string(b))
	}
	lits = append(lits, "0", "-0", "0.0", "-0.0", "9007199254740992", "9007199254740993",
		"0.0000000000000000000001", "0.00000000000000000000001", "1234567890123456789", "12345678901234567890")
	answered := 0
	for i := 0; i < 500_000; i++ {
		var b []byte
		if i%2 == 0 {
			b, _ = AppendFloat(nil, rng.Float64()*math.Pow(10, float64(rng.Intn(30)-15)))
		} else {
			b = strconv.AppendFloat(nil, float64(rng.Int63n(1<<54))/math.Pow(10, float64(rng.Intn(23))), 'f', -1, 64)
		}
		lits = append(lits, string(b))
	}
	for _, lit := range lits {
		want, err := strconv.ParseFloat(lit, 64)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := exactDecimal([]byte(lit))
		if !ok {
			continue
		}
		answered++
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("exactDecimal(%s) = %v, ParseFloat says %v", lit, got, want)
		}
	}
	if answered < len(lits)/4 {
		t.Fatalf("exactDecimal answered %d of %d literals: the fast path has gone", answered, len(lits))
	}
	t.Logf("exactDecimal answered %d of %d literals", answered, len(lits))
}

// The scanner's number grammar is JSON's: a literal it accepts must be
// one encoding/json accepts, with the same value.
func TestScannerNumbersMatchEncodingJSON(t *testing.T) {
	for _, lit := range []string{"0", "-0", "1", "-1", "01", "1.", ".5", "1.5", "1e5", "1E+5", "1e-5", "1e", "1e+",
		"-", "+1", "0x10", "1_000", "Infinity", "NaN", "1e400", "-1e400", "1e-400", "9223372036854775807",
		"9223372036854775808", "-9223372036854775808", "2.5e-3", "00.1", "0.1.2"} {
		var wantF float64
		errF := json.Unmarshal([]byte(lit), &wantF)
		s := NewScanner([]byte(lit))
		gotF, okF := s.Float()
		okF = okF && s.End()
		if okF && (errF != nil || math.Float64bits(gotF) != math.Float64bits(wantF)) {
			t.Fatalf("Float(%s) = %v; encoding/json: %v, %v", lit, gotF, wantF, errF)
		}
		var wantI int64
		errI := json.Unmarshal([]byte(lit), &wantI)
		s = NewScanner([]byte(lit))
		gotI, okI := s.Int64()
		okI = okI && s.End()
		if okI && (errI != nil || gotI != wantI) {
			t.Fatalf("Int64(%s) = %v; encoding/json: %v, %v", lit, gotI, wantI, errI)
		}
	}
}

func TestScannerListsAndRaw(t *testing.T) {
	s := NewScanner([]byte(`[[1,2],[],[3.5]]`))
	ls, ok := s.FloatLists()
	if !ok || len(ls) != 3 || len(ls[0]) != 2 || ls[1] == nil || len(ls[1]) != 0 || ls[2][0] != 3.5 || cap(ls[0]) != 2 {
		t.Fatalf("FloatLists = %v, %v", ls, ok)
	}
	for _, in := range []string{`[[1,2],null]`, `[[1,2]`, `[[1 ,2]]`, `[[1,2],]`, `[1]`} {
		if _, ok := NewScanner([]byte(in)).FloatLists(); ok {
			t.Fatalf("FloatLists accepted %s", in)
		}
	}
	s = NewScanner([]byte(`{"a":"}","b":[{"c":"\"]"}]},1`))
	raw, ok := s.Raw()
	if !ok || string(raw) != `{"a":"}","b":[{"c":"\"]"}]}` || !s.eat(',') {
		t.Fatalf("Raw = %s, %v", raw, ok)
	}
	for _, in := range []string{`null}`, `"str"}`, `1}`, `{"a":1`} {
		if _, ok := NewScanner([]byte(in)).Raw(); ok {
			t.Fatalf("Raw accepted %s", in)
		}
	}
}
