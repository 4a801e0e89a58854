#!/usr/bin/env Rscript
# Nonlinear paleoclimate field reconstruction from tree-ring proxies.
# Calibration feeds two independent inversions whose fields are merged,
# so the dependency structure is a diamond.

# @begin paleo_recon
# @in proxy_series
# @in instrumental
# @param growth_model
# @out temp_field
# @out precip_field

# @begin CalibrateModel
# @in proxy_series
# @in instrumental
# @param growth_model
# @out calib_params
calib_params <- fit_forward_model(proxy_series, instrumental,
                                  growth = growth_model)
# @end CalibrateModel

# @begin ReconstructTemp @in calib_params @in proxy_series @out temp_anom
temp_anom <- invert_field(calib_params, proxy_series, target = "T")
# @end ReconstructTemp

# @begin ReconstructPrecip @in calib_params @in proxy_series @out precip_anom
precip_anom <- invert_field(calib_params, proxy_series, target = "P")
# @end ReconstructPrecip

# @begin CombineFields @in temp_anom @in precip_anom @out temp_field @out precip_field
fields <- merge_fields(temp_anom, precip_anom)
temp_field <- fields$temp
precip_field <- fields$precip
cat("wrote fields; '#' in this string is not a comment\n")
# @end CombineFields

# @end paleo_recon
