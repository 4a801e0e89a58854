#!/usr/bin/env Rscript
# Differential-expression pipeline for Affymetrix CEL files.

# @begin affy_analysis
# @in cel_files @desc raw CEL files, one per array
# @param norm_method
# @param p_cutoff
# @param go_universe
# @out go_table
# @out heatmap_png

suppressMessages(library(affy))
suppressMessages(library(limma))

# @begin Normalize @in cel_files @param norm_method @out eset
raw <- ReadAffy(filenames = cel_files)
eset <- expresso(raw, normalize.method = norm_method,
                 bgcorrect.method = "rma", summary.method = "medianpolish")
# @end Normalize

# @begin SelectDEGs @in eset @param p_cutoff @out degs
design <- model.matrix(~ group, data = pData(eset))
fit <- eBayes(lmFit(eset, design))
degs <- topTable(fit, coef = 2, p.value = p_cutoff, number = Inf)
cat("# @begin inside a string must not open a block\n")
# @end SelectDEGs

# @begin GO_Analysis @in degs @param go_universe @out go_table
go_table <- run_go_enrichment(rownames(degs), universe = go_universe)
write.csv(go_table, "go_table.csv", row.names = FALSE)
# @end GO_Analysis

# @begin MakeHeatmap @in degs @out heatmap_png
heatmap_png <- "heatmap.png"
png(heatmap_png, width = 900, height = 1200)
heatmap(as.matrix(degs[, grep("^GSM", colnames(degs))]))
dev.off()
# @end MakeHeatmap

# @end affy_analysis
