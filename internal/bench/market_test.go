package bench

import (
	"strings"
	"testing"
)

// The quick-scale marketplace experiment must produce the full 3×3 grid
// with live SLO enforcement in every market row — the property Validate
// gates the BENCH_market.json artifact on.
func TestMarketBenchEnforcesSLOs(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment still takes seconds")
	}
	res, err := RunMarket(Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Rows); got != 9 {
		t.Fatalf("rows = %d, want 3 mixes × 3 variants", got)
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("quick-scale result fails its own artifact guard: %v", err)
	}
	for _, row := range res.Rows {
		if row.Variant != "market" {
			if row.Market != nil {
				t.Errorf("%s/%s: marketplace counters on a non-market row", row.Mix, row.Variant)
			}
			continue
		}
		if row.Market == nil || row.Market.SLOEnforcedEpochs == 0 {
			t.Errorf("%s/market: no SLO-enforced epochs: %+v", row.Mix, row.Market)
		}
		if row.SLOWindows == 0 {
			t.Errorf("%s/market: no SLO windows evaluated", row.Mix)
		}
	}
	// The adversarial market must actually trade and claw back; the skewed
	// comparison must stay within the +5% fault-cost bound.
	var adv *MarketVariantRow
	for i := range res.Rows {
		if res.Rows[i].Mix == "adversarial" && res.Rows[i].Variant == "market" {
			adv = &res.Rows[i]
		}
	}
	if adv == nil || adv.Market.Leases == 0 || adv.Market.Clawbacks == 0 {
		t.Fatalf("adversarial market never traded/clawed back: %+v", adv)
	}
	if !res.WithinSkewedCostBound {
		t.Errorf("skewed fault-cost delta %+.1f%% outside the +5%% bound", res.SkewedCostDeltaPct)
	}
	if out := res.Render(); !strings.Contains(out, "adversarial") || !strings.Contains(out, "skewed mix") {
		t.Fatalf("render missing sections:\n%s", out)
	}
}

// A result whose market rows never enforced an SLO must be refused by
// Validate, which fluidmem-bench runs before it writes or checks the artifact.
func TestMarketBenchValidateRejectsVacuousRuns(t *testing.T) {
	cases := []struct {
		name string
		res  MarketResult
		want string
	}{
		{"no market rows", MarketResult{}, "no market variant rows"},
		{"missing counters", MarketResult{Rows: []MarketVariantRow{
			{Mix: "skewed", Variant: "market"},
		}}, "no marketplace counters"},
		{"zero epochs", MarketResult{Rows: []MarketVariantRow{
			{Mix: "skewed", Variant: "market", Market: &MarketActivity{}},
		}}, "zero epochs"},
		{"zero SLO enforcement", MarketResult{Rows: []MarketVariantRow{
			{Mix: "skewed", Variant: "market", Market: &MarketActivity{Epochs: 4}},
		}}, "zero SLO-enforcement epochs"},
		{"zero windows", MarketResult{Rows: []MarketVariantRow{
			{Mix: "skewed", Variant: "market",
				Market: &MarketActivity{Epochs: 4, SLOEnforcedEpochs: 4}},
		}}, "zero SLO windows"},
	}
	for _, c := range cases {
		err := c.res.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", c.name, err, c.want)
		}
	}
}
