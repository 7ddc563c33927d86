package models

import "testing"

// TestFingerprintsPinned pins every registered model's graph.Fingerprint.
// A stored plan is filed under a key derived from the fingerprint, so a
// digest that moves silently turns every existing corpus cold: a change
// here must be deliberate.
func TestFingerprintsPinned(t *testing.T) {
	want := map[string]string{
		"bert-base":      "48fe00dcec44aed62feb40ff2dcb5eed18eba6693920a5f3edfb436621c659d6",
		"bert-large":     "0eacd9aaf7131cecf64d0ccaa9b9ac644692abfd163311e69a4511cb48466b47",
		"gpt-125M":       "3d915c09ab4219b547ac524876246d0dd7e1d555eedb4d7185ee98649b56dc98",
		"moe-1.3B":       "e425ccf43356d3f56a02ca5aa68a0cdc6c0936435998c39fada739e4d28bd7f5",
		"moe-2.4B":       "723b837aecb4bb79085401f34ba482599e7713b313779ee4c840f48297483bc1",
		"moe-380M":       "cd262f71c54891d813040c64213be78f7f8c1b69bb7bc04cbbdc970182802511",
		"moe-690M":       "265bc9f1d7757e5255afeec2981c6548a05f095b29284120614572a0bf619e5f",
		"resnet-228M":    "3b0874557b0c63bc5167f8739bc9819291de1248868f2ebe46911a5edc115c56",
		"resnet-26M":     "5bcd068f875e2537a167450a8fcaf162d84094129c0681eb314bada94414a1af",
		"resnet-44M":     "9b5039e47182af848125a47a34c7cec40eaff4e04ca9b4595036d8a8484e9a9a",
		"resnet-536M":    "6a68fef2edfebfd4328a06f9c475b8bac45c9df3f3caa055e6d098452e59141e",
		"resnet-843M":    "38bb36d2fa33ee4021e258236a0826c029756ce30c34116c06d65ccc605c4a79",
		"resnet152-100K": "687bd37afad273f0a176f15efd5bab12d5b266ffced0c8822cbe713db116eca2",
		"t5-1.4B":        "1f802f0d3cccf43ab96b04b7699eb852c3fd2ebc52e528fc84a98a44b182a30e",
		"t5-100M":        "5e51fdf7c6c3812732ecfc5ce54ee9fda2cfdd0603d3a6626e2f3a1e384e22de",
		"t5-200M":        "ddb12df3558615ef5ec9ee33e0a328ec70b8f9d5be89dfa359eb5879cbd18d8c",
		"t5-300M":        "103985ac59de88b05431ee849850725f24122d334157e6b393c0fddf085d43c9",
		"t5-770M":        "fabf16a073821aac355f0d47c7373a91693040827eb8b5ed307e1e40574d5a2d",
		"twotower-small": "f54e7bbd38e1fdf4a3791fcc8e42b61a3c5eff552f31cd3a87147fb138709105",
		"unet-small":     "aae4f2141bd266dd2a55c3ee720419215924c87c4151e9b1e09bd629091e35aa",
		"vit-base":       "3bab17411e8017cf0c037351590386411955d5c615388822f099602fbeebfb3b",
		"wideresnet50x2": "e0b4f5bfe50f25f27b0337569a349c99a61b5995e15b78ae7860588d4b9c4173",
	}
	names := Names()
	if len(names) != len(want) {
		t.Errorf("%d models registered, %d pinned", len(names), len(want))
	}
	for _, name := range names {
		g, err := Build(name)
		if err != nil {
			t.Fatal(err)
		}
		if pinned, ok := want[name]; !ok {
			t.Errorf("%s: no pinned fingerprint", name)
		} else if got := g.Fingerprint(); got != pinned {
			t.Errorf("%s: fingerprint %s, pinned %s", name, got, pinned)
		}
	}
}
