package report

import (
	"bytes"
	"fmt"

	"bulktx/internal/sweep"
)

// SweepMarkdown renders an executed sweep's summary as a byte-stable
// markdown document: a header with the job/cache accounting, the
// goodput and normalized-energy tables, and a per-cell summary list.
// It is the report.md artifact of the HTTP service's jobs; like Build,
// the output contains no wall-clock timestamps, so identical summaries
// render to identical bytes.
func SweepMarkdown(title string, sum *sweep.Summary) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# %s\n\n", title)
	fmt.Fprintf(&b, "- jobs: %d (%d served from cache)\n", sum.Jobs, sum.Cached)
	fmt.Fprintf(&b, "- grid points: %d\n\n", len(sum.Cells))

	fmt.Fprintf(&b, "## Goodput\n\n")
	fmt.Fprintf(&b, "```text\n%s```\n\n", sum.Table(title+": goodput", sweep.MetricGoodput).Render())
	fmt.Fprintf(&b, "## Normalized energy\n\n")
	fmt.Fprintf(&b, "```text\n%s```\n\n", sum.Table(title+": normalized energy", sweep.MetricNormEnergy).Render())

	fmt.Fprintf(&b, "## Cells\n\n")
	for _, c := range sum.Cells {
		fmt.Fprintf(&b, "- `%s` (%d runs): goodput %.4f ± %.4f, energy %s ± %s J/Kbit, mean delay %v\n",
			c.Point, c.Runs,
			c.Goodput.Mean, c.Goodput.CI95,
			formatG(c.NormEnergy.Mean), formatG(c.NormEnergy.CI95),
			c.MeanDelay)
	}
	b.WriteByte('\n')
	return b.Bytes()
}
