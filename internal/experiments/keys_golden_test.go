package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// campaignKeysGolden pins, for every experiment, the sha256 of its cells'
// Key() values in spec order (one key per line) at bench and at standard
// scale. A key that moves orphans that cell's stored result, so a moved
// row must be a deliberate change of the grid, never a side effect.
var campaignKeysGolden = map[string]struct{ bench, standard string }{
	"table1": {
		"45fbfe7a2fcae117e762643d59996978859ab7ad6f005502ef3bfd5d68bf4d31",
		"8830b8be3d302ce9104037542abf5f8b38bfdc32988f99c38b9c3bbf8831ea36"},
	"table2": {
		"807de2b565dacde3e32372010788acec0813c41de5613b63c2f1fe171d786384",
		"057683bcede0b23f37a8552228720cca17308f4ae0bbeb74e5baeedd399ae57a"},
	"table3": {
		"d142b6cfa6c4a30aa9f29a9aa7214f0b6fa4abadf5e4aefc5c56e6f3dbf7f54a",
		"648a31eaeab3b5aec43163b5f9ebeba10b165ef3cd58c96fdc89c97dd1001493"},
	"fig2": {
		"69cff6ed2f8b45fb4e836db4cd3b5d10bc559c369911a38326570090a17f4af7",
		"ea6a21ec7c2ceb9faecf1ffabe9e4f60473790fdaf25041932f95394c5b2121a"},
	"fig4": {
		"690bbd41b7909cd3798b408bdf2647b478f1b981a8a7967bbf6d47fbcf420f00",
		"3b1a718e404d5ff1f57bd2107e6dc462d8118a034f6a056c869f1ba3e2224fd3"},
	"fig5": {
		"a234fb1433cba4697ed8334f70c8e580adee840675d66ec7fc7776cc078b3c0f",
		"ef300cee1b03dc9bd05417101485d0009f2631b636b510b83c0d72c94963f8c6"},
	"fig6": {
		"fa6025de035448ebce48c9925ab1c8bc0e0f0973d4da46f27df00666ecfacf54",
		"70ab7b7e2186b4834080a903ca2cd798f348c5d201e4bea7ee7d10cdf647eb7c"},
	"adaptive": {
		"157126e2ecb8a8b11a70a86f9e60beaa922e0fb1e4d3c271f6ef54a4162b26d7",
		"79b79d986d56d9f12ac0fbcac88d0a982319df2b25cd22cfad28c4f4093aca1b"},
	"compression": {
		"aaaeac2c0203b41d75a8c643fb4d3fb8b38319c8c218f68f11fac77ac33a472a",
		"0096cc4fd968b9f856a686e7af7acf2a3771b59e22942b8e1d0713c9159bcff9"},
	"hostile": {
		"0fac2a4a99402546c7b92b482cf8f1e41c30ab3e11a4026f76885945d377ca7c",
		"80e54984634cdd4ad974c1ec32d87de3b24a3ee874c6d0728354f33ba2879ed0"},
	"serverlearn": {
		"98854e26a8b784782373739ae56ee2affa6d4a85de73a14c89f5689d0a87acfd",
		"12afcb365c8feb185b066541dea6aa51f6cb2887020934fd05cdcc00ef7d4830"},
}

// specKeysDigest hashes the Key() of every cell of experiment name's grid
// at p, in spec order.
func specKeysDigest(t *testing.T, name string, p Params) string {
	t.Helper()
	x, err := Experiments().Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, c := range x.Spec(p).Cells {
		key, err := c.Key()
		if err != nil {
			t.Fatalf("%s: %s: %v", name, c.ID(), err)
		}
		h.Write([]byte(key + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCampaignKeysGolden builds every experiment's grid (no training) and
// compares its key digest with the pinned row, one subtest per experiment;
// an experiment without a row, or a row without an experiment, fails too.
func TestCampaignKeysGolden(t *testing.T) {
	names := Experiments().Names()
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			want, ok := campaignKeysGolden[name]
			if !ok {
				t.Errorf("%s: no pinned key digest", name)
			}
			bench := specKeysDigest(t, name, DefaultParams(ScaleBench))
			standard := specKeysDigest(t, name, DefaultParams(ScaleStandard))
			if bench != want.bench || standard != want.standard {
				t.Errorf("%s: key digests moved: bench %s standard %s (pinned %s %s)",
					name, bench, standard, want.bench, want.standard)
			}
		})
	}
	if len(campaignKeysGolden) != len(names) {
		t.Errorf("%d pinned rows for %d experiments", len(campaignKeysGolden), len(names))
	}
}
