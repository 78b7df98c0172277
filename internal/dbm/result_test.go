package dbm

import (
	"math"
	"reflect"
	"testing"

	"janus/internal/vm"
)

func TestResultEncodeDecodeRoundTrip(t *testing.T) {
	r := Result{
		Result: vm.Result{
			Exit:     7,
			Output:   []uint64{1, math.MaxUint64},
			Cycles:   99,
			Insts:    1000,
			MemHash:  0xfeed_face_cafe_f00d,
			DataHash: math.MaxUint64 - 1,
		},
		Stats: Stats{
			TransBlocks:    12,
			TransInsts:     480,
			TransCycles:    960,
			ParCycles:      33,
			Invocations:    4,
			ParRegions:     3,
			HostParRegions: 3,
			SeqFallbacks:   1,
			ParRecoveries:  2,
			DemotedLoops:   1,
			ChecksRun:      10,
			TxStarted:      6,
			TxCommits:      5,
			TxAborts:       1,
			SpecReads:      100,
			SpecWrites:     50,
			SpecInsts:      200,
		},
	}
	data, err := EncodeResult(&r)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeResult(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(*got, r) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, r)
	}
}

func TestDecodeResultRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeResult([]byte(`{"Exit":0,"NotAField":true}`)); err == nil {
		t.Fatal("payload with unknown field decoded without error")
	}
}
