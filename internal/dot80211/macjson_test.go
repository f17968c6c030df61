package dot80211

import (
	"encoding/json"
	"testing"
)

func TestMACJSONRoundTrip(t *testing.T) {
	m := MAC{0x02, 0x1a, 0xff, 0x00, 0x7b, 0xc4}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if string(b) != `"02:1a:ff:00:7b:c4"` {
		t.Fatalf("marshal = %s, want quoted colon-hex", b)
	}
	var got MAC
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got != m {
		t.Fatalf("round trip = %v, want %v", got, m)
	}
}

func TestMACJSONLegacyArray(t *testing.T) {
	// Only the colon-hex string decodes. The six-octet array spelling
	// belonged to meta.json files of pre-JIG2 trace directories, which no
	// longer open at all.
	var got MAC
	for _, in := range []string{`[0,1,2,3,4,5]`, `[1,2,3]`, `"not-a-mac"`} {
		if err := json.Unmarshal([]byte(in), &got); err == nil {
			t.Errorf("%s decoded as a MAC (%v)", in, got)
		}
	}
}

func TestMACJSONMapKey(t *testing.T) {
	// MAC-keyed maps (e.g. RoamingReport.PerClient) marshal via
	// TextMarshaler and must round trip.
	src := map[MAC]int{
		{0x02, 0, 0, 0, 0, 0x01}: 3,
		{0x02, 0, 0, 0, 0, 0x02}: 7,
	}
	b, err := json.Marshal(src)
	if err != nil {
		t.Fatalf("marshal map: %v", err)
	}
	var got map[MAC]int
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("unmarshal map: %v", err)
	}
	if len(got) != 2 || got[MAC{0x02, 0, 0, 0, 0, 0x01}] != 3 || got[MAC{0x02, 0, 0, 0, 0, 0x02}] != 7 {
		t.Fatalf("map round trip = %v", got)
	}
}
