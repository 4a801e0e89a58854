# @begin pipeline @in reads @out summary
# @begin Align @in reads @out bam @out audit_log
bam <- align(reads)
# audit_log is named here in prose only, never in code
# @end Align
# @begin Summarize @in bam @in audit_log @out summary
summary <- tally(bam, audit_log)
# @end Summarize
# @end pipeline
